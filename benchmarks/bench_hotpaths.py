#!/usr/bin/env python
"""Hot-path micro-benchmarks: before/after speedups, machine-readable.

Each hot path times the *reference* implementation (the pre-overhaul
per-step marcher / loop codecs from ``tests/oracles.py``, the copying
unpack) against the production
one **in the same process on the same inputs**, asserting the outputs are
bit-identical first.  Results land in ``BENCH_hotpaths.json`` at the repo
root — the perf trajectory's seed — as ``reference_s`` / ``optimized_s``
/ ``speedup`` per hot path, per mode (``full`` = paper scale, ``smoke``
= seconds-fast CI scale).

Usage::

    python benchmarks/bench_hotpaths.py            # full scale, report only
    python benchmarks/bench_hotpaths.py --smoke    # small/fast variant
    python benchmarks/bench_hotpaths.py --update   # write results to JSON
    python benchmarks/bench_hotpaths.py --check    # exit 1 on regression

``--check`` compares the *speedup ratio* of each hot path against the
recorded baseline for the same mode and fails when a path lost more than
2x — speedups are machine-neutral, so the check is meaningful on any
host.  In full mode it additionally enforces the floor speedups the
overhaul promises (3x raycast, 10x RLE).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time

import numpy as np

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_ROOT, "src"))
sys.path.insert(1, os.path.join(_ROOT, "tests"))  # oracles.py: the reference side

BASELINE_PATH = os.path.join(_ROOT, "BENCH_hotpaths.json")

#: Full-mode floor speedups (the PR's acceptance criteria).
FULL_MODE_FLOORS = {
    "raycast_engine_high": 3.0,
    "rle_encode_mask": 10.0,
    "rle_decode_mask": 10.0,
}
#: A hot path "regresses" when its speedup halves versus the baseline.
REGRESSION_FACTOR = 2.0


def _time(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


# --------------------------------------------------------------------------
# hot paths
# --------------------------------------------------------------------------
def bench_raycast(smoke: bool) -> dict:
    from oracles import render_reference
    from repro.render.camera import Camera
    from repro.render.raycast import render_full
    from repro.volume.datasets import make_dataset

    if smoke:
        size, shape, repeats = 96, (64, 64, 28), 2
    else:
        size, shape, repeats = 384, None, 3
    volume, transfer = make_dataset("engine_high", shape)
    camera = Camera(
        width=size, height=size, volume_shape=volume.shape, rot_x=20.0, rot_y=30.0
    )
    reference = render_reference(volume, transfer, camera)
    optimized = render_full(volume, transfer, camera)
    if not (
        np.array_equal(reference.intensity, optimized.intensity)
        and np.array_equal(reference.opacity, optimized.opacity)
    ):
        raise AssertionError("chunked marcher is not bit-identical to the reference")
    ref_s = _time(lambda: render_reference(volume, transfer, camera), repeats)
    opt_s = _time(lambda: render_full(volume, transfer, camera), repeats)
    return {
        "detail": f"engine_high render_full {size}x{size}, volume {volume.shape}",
        "reference_s": ref_s,
        "optimized_s": opt_s,
        "speedup": ref_s / opt_s,
    }


def _bench_mask(side: int) -> np.ndarray:
    """Deterministic subimage-like mask: alternating geometric runs.

    Mean run lengths (blank 20 px, foreground 7 px) model the
    fragmented scanlines of a high-threshold sparse dataset, where both
    codecs see many short runs per row.
    """
    n = side * side
    rng = np.random.default_rng(7)
    blank = rng.geometric(1.0 / 20.0, size=n // 10 + 16)
    fg = rng.geometric(1.0 / 7.0, size=blank.size)
    lengths = np.stack([blank, fg], axis=1).ravel()
    lengths = lengths[np.cumsum(lengths) < n]
    mask = np.zeros(n, dtype=bool)
    pos = np.concatenate(([0], np.cumsum(lengths)))
    for start, end in zip(pos[1::2], pos[2::2]):
        mask[start:end] = True
    mask[n - 3 :] = True  # exercise a trailing foreground run
    return mask


def bench_rle(smoke: bool) -> tuple[dict, dict]:
    from oracles import _rle_decode_mask_loop, _rle_encode_mask_loop
    from repro.compositing.rle import rle_decode_mask, rle_encode_mask

    side = 128 if smoke else 768
    repeats = 7 if smoke else 25
    mask = _bench_mask(side)
    codes = rle_encode_mask(mask)
    if not np.array_equal(codes, _rle_encode_mask_loop(mask)):
        raise AssertionError("vectorized RLE encode is not byte-identical")
    if not np.array_equal(rle_decode_mask(codes, mask.size), _rle_decode_mask_loop(codes, mask.size)):
        raise AssertionError("vectorized RLE decode mismatch")

    enc = {
        "detail": f"{side}x{side} mask, {codes.size} codes",
        "reference_s": _time(lambda: _rle_encode_mask_loop(mask), repeats),
        "optimized_s": _time(lambda: rle_encode_mask(mask), repeats),
    }
    enc["speedup"] = enc["reference_s"] / enc["optimized_s"]
    dec = {
        "detail": f"{side}x{side} mask, {codes.size} codes",
        "reference_s": _time(lambda: _rle_decode_mask_loop(codes, mask.size), repeats),
        "optimized_s": _time(lambda: rle_decode_mask(codes, mask.size), repeats),
    }
    dec["speedup"] = dec["reference_s"] / dec["optimized_s"]
    return enc, dec


def bench_wire(smoke: bool) -> dict:
    from repro.compositing.wire import pack_bsbrc, unpack_bsbrc
    from repro.types import Rect

    side = 128 if smoke else 768
    repeats = 5 if smoke else 3
    mask = _bench_mask(side).reshape(side, side)
    rng = np.random.default_rng(11)
    opacity = np.where(mask, rng.uniform(0.1, 0.9, (side, side)), 0.0)
    intensity = np.where(mask, rng.uniform(0.1, 1.0, (side, side)), 0.0)
    rect = Rect(0, 0, side, side)
    msg = pack_bsbrc(intensity, opacity, rect).buffer

    def legacy_unpack() -> None:
        # Pre-overhaul pixel block handling: defensive per-column copies.
        _, mask, flat_i, flat_a = unpack_bsbrc(msg)
        flat_i.copy(), flat_a.copy()

    ref_s = _time(legacy_unpack, repeats)
    opt_s = _time(lambda: unpack_bsbrc(msg), repeats)
    return {
        "detail": f"BSBRC unpack, {side}x{side} rect, {len(msg)} wire bytes",
        "reference_s": ref_s,
        "optimized_s": opt_s,
        "speedup": ref_s / opt_s,
    }


def bench_render_cache(smoke: bool) -> dict:
    from repro.experiments.harness import RenderedWorkload

    size, shape, ranks = (48, (32, 32, 16), 8) if smoke else (192, (96, 96, 42), 16)
    with tempfile.TemporaryDirectory() as cache_dir:
        t0 = time.perf_counter()
        RenderedWorkload("engine_high", size, max_ranks=ranks, volume_shape=shape, cache_dir=cache_dir)
        cold_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        RenderedWorkload("engine_high", size, max_ranks=ranks, volume_shape=shape, cache_dir=cache_dir)
        warm_s = time.perf_counter() - t0
    return {
        "detail": f"engine_high workload {size}px P={ranks}, cold render vs disk-cache load",
        "reference_s": cold_s,
        "optimized_s": warm_s,
        "speedup": cold_s / warm_s,
    }


# --------------------------------------------------------------------------
# driver
# --------------------------------------------------------------------------
def run(smoke: bool) -> dict:
    results: dict[str, dict] = {}
    results["raycast_engine_high"] = bench_raycast(smoke)
    results["rle_encode_mask"], results["rle_decode_mask"] = bench_rle(smoke)
    results["wire_unpack_bsbrc"] = bench_wire(smoke)
    results["render_workload_cache"] = bench_render_cache(smoke)
    return results


def check(results: dict, baseline_modes: dict, mode: str) -> list[str]:
    problems: list[str] = []
    baseline = baseline_modes.get(mode, {}).get("hot_paths", {})
    for name, row in results.items():
        base = baseline.get(name)
        if base and row["speedup"] < base["speedup"] / REGRESSION_FACTOR:
            problems.append(
                f"{name}: speedup {row['speedup']:.2f}x is >{REGRESSION_FACTOR:g}x "
                f"below the recorded baseline {base['speedup']:.2f}x"
            )
    if mode == "full":
        for name, floor in FULL_MODE_FLOORS.items():
            if name in results and results[name]["speedup"] < floor:
                problems.append(
                    f"{name}: speedup {results[name]['speedup']:.2f}x is below "
                    f"the promised floor {floor:g}x"
                )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="small, seconds-fast variant")
    parser.add_argument("--check", action="store_true", help="exit 1 on regression vs baseline")
    parser.add_argument("--update", action="store_true", help="record results in the baseline JSON")
    parser.add_argument("--out", default=BASELINE_PATH, help="baseline JSON path")
    args = parser.parse_args(argv)
    mode = "smoke" if args.smoke else "full"

    results = run(args.smoke)

    print(f"hot-path benchmarks ({mode} mode):")
    for name, row in results.items():
        print(
            f"  {name:24s} ref {row['reference_s'] * 1e3:10.2f} ms   "
            f"opt {row['optimized_s'] * 1e3:10.2f} ms   "
            f"speedup {row['speedup']:8.2f}x   [{row['detail']}]"
        )

    modes: dict = {}
    if os.path.exists(args.out):
        with open(args.out, "r", encoding="utf-8") as fh:
            modes = json.load(fh).get("modes", {})

    problems = check(results, modes, mode)
    for problem in problems:
        print(f"REGRESSION: {problem}", file=sys.stderr)

    if args.update:
        modes[mode] = {"hot_paths": results}
        payload = {
            "schema": 1,
            "note": (
                "before/after hot-path timings from benchmarks/bench_hotpaths.py; "
                "'reference' is the kept pre-overhaul implementation, measured "
                "in the same process as 'optimized' on identical inputs"
            ),
            "modes": modes,
        }
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        print(f"[baseline written to {args.out}]")

    if problems and args.check:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
