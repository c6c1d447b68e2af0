#!/usr/bin/env python
"""Tile-routed compositing benchmarks: latency to first pixel.

The asynchronous tile engine's promise is not a better makespan — it is
*progressive* completion: tiles become final long before the frame
does, so a display can start drawing while compositing is still in
flight.  This benchmark records ``latency_to_first_pixel`` (time until
the first tile of the frame is final) and the total frame time for
``tile-routed:rect`` against the stage-synchronous ``binary-swap:raw``
and ``radix-k:rect-rle`` baselines at P ∈ {8, 64, 256} × fill ∈ {5, 20,
60}% on the simulator's event engine, over both the paper's flat link
and a modelled fat-tree.  For stage-synchronous methods the first final
pixel *is* the last one, so their latency equals their makespan.

Every tile-routed run is first asserted bit-identical to
``binary-swap:raw`` on the same workload — speed claims only count on
provably identical pixels.

Machine-readable results land in ``BENCH_tile.json``.

Usage::

    python benchmarks/bench_tile.py            # full sweep
    python benchmarks/bench_tile.py --smoke    # CI scale (seconds)
    python benchmarks/bench_tile.py --update   # write baseline JSON
    python benchmarks/bench_tile.py --check    # exit 1 on regression

``--check`` enforces the acceptance floor (tile-routed latency to first
pixel ≥ 2x better than binary-swap at P=64 on the flat network) and, in
any mode, fails when a workload's wall time exceeds
``REGRESSION_FACTOR`` x the committed baseline for the same mode.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

BASELINE_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCH_tile.json"
)

#: A workload "regresses" when its wall time doubles versus the baseline.
REGRESSION_FACTOR = 2.0
#: Acceptance floor: tile-routed first-pixel latency vs binary-swap at P=64.
LATENCY_ADVANTAGE_FLOOR_P64 = 2.0

IMAGE_SIZE = 96
TILE = 16
FILLS = (0.05, 0.20, 0.60)
TOPOLOGIES = ("flat", "fat-tree:radix=16")

METHODS = (
    ("binary-swap", "bs", {}),
    ("radix-k", "radix-k:rect-rle", {}),
    ("tile-routed", "tile-routed:rect", {"tile": TILE}),
)


def _final(run, image_size: int):
    from repro.pipeline.system import assemble_final

    return assemble_final(run.outcomes, image_size, image_size)


def bench_latency(smoke: bool) -> dict:
    from repro.cluster.model import SP2, make_network
    from repro.cluster.run_timeline import tile_latency_metrics
    from repro.experiments.scale import VIEW_DIR, synthetic_subimages
    from repro.pipeline.system import run_compositing
    from repro.volume.partition import recursive_bisect

    rank_counts = (8, 64) if smoke else (8, 64, 256)
    fills = (0.20,) if smoke else FILLS

    rows: dict[str, dict] = {}
    for topology in TOPOLOGIES:
        for num_ranks in rank_counts:
            plan = recursive_bisect((64, 64, 64), num_ranks)
            for fill in fills:
                images = synthetic_subimages(num_ranks, IMAGE_SIZE, fill)
                reference = None
                per_method: dict[str, dict] = {}
                for label, method, options in METHODS:
                    network = make_network(topology, SP2)
                    t0 = time.perf_counter()
                    run = run_compositing(
                        list(images), method, plan, VIEW_DIR, SP2,
                        network=network, **options,
                    )
                    wall_s = time.perf_counter() - t0
                    final = _final(run, IMAGE_SIZE)
                    if label == "binary-swap":
                        reference = final
                    elif label == "tile-routed":
                        assert reference is not None
                        if not (
                            np.array_equal(final.intensity, reference.intensity)
                            and np.array_equal(final.opacity, reference.opacity)
                        ):
                            raise AssertionError(
                                f"tile-routed diverged from binary-swap:raw at "
                                f"P={num_ranks} fill={fill} {topology}"
                            )
                    events = [
                        ev for rs in run.stats.rank_stats for ev in rs.events
                    ]
                    metrics = tile_latency_metrics(events)
                    per_method[label] = {
                        "latency_to_first_pixel_s": metrics.get(
                            "latency_to_first_pixel", run.stats.makespan
                        ),
                        "latency_to_p50_pixels_s": metrics.get(
                            "latency_to_p50_pixels", run.stats.makespan
                        ),
                        "makespan_s": run.stats.makespan,
                        "wall_s": wall_s,
                    }
                tile_lat = per_method["tile-routed"]["latency_to_first_pixel_s"]
                bs_lat = per_method["binary-swap"]["latency_to_first_pixel_s"]
                key = f"{topology.partition(':')[0]}_p{num_ranks}_fill{int(fill * 100)}"
                rows[key] = {
                    "detail": (
                        f"P={num_ranks}, fill={fill:g}, {IMAGE_SIZE}px, "
                        f"tile={TILE}, topology={topology}; tile-routed final "
                        f"asserted bit-identical to binary-swap:raw"
                    ),
                    "first_pixel_advantage": bs_lat / tile_lat,
                    "methods": per_method,
                }
    return rows


def run(smoke: bool) -> dict:
    return {"latency": bench_latency(smoke)}


def check(results: dict, baseline_modes: dict, mode: str) -> list[str]:
    problems: list[str] = []
    baseline = baseline_modes.get(mode, {})

    # Wall-clock regression guard (the CI smoke job's teeth).
    base_rows = baseline.get("latency", {})
    for name, row in results.get("latency", {}).items():
        base = base_rows.get(name)
        if not base:
            continue
        for label, method_row in row["methods"].items():
            base_method = base.get("methods", {}).get(label)
            if base_method and "wall_s" in base_method:
                if method_row["wall_s"] > base_method["wall_s"] * REGRESSION_FACTOR:
                    problems.append(
                        f"latency/{name}/{label}: {method_row['wall_s']:.3f} s "
                        f"is >{REGRESSION_FACTOR:g}x the recorded baseline "
                        f"{base_method['wall_s']:.3f} s"
                    )

    # Acceptance floor: every P=64 flat-network point must show the
    # tile-routed engine reaching its first pixel >= 2x sooner than
    # binary-swap (both modes measure P=64, so the floor always applies).
    for name, row in results.get("latency", {}).items():
        if name.startswith("flat_p64_"):
            if row["first_pixel_advantage"] < LATENCY_ADVANTAGE_FLOOR_P64:
                problems.append(
                    f"latency/{name}: first-pixel advantage "
                    f"{row['first_pixel_advantage']:.2f}x is below the "
                    f"{LATENCY_ADVANTAGE_FLOOR_P64:g}x floor vs binary-swap"
                )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="reduced CI-scale variant")
    parser.add_argument("--check", action="store_true", help="exit 1 on regression vs baseline")
    parser.add_argument("--update", action="store_true", help="record results in the baseline JSON")
    parser.add_argument("--out", default=BASELINE_PATH, help="baseline JSON path")
    args = parser.parse_args(argv)
    mode = "smoke" if args.smoke else "full"

    results = run(args.smoke)

    print(f"tile-routed latency benchmarks ({mode} mode):")
    for name, row in results["latency"].items():
        tile = row["methods"]["tile-routed"]
        bs = row["methods"]["binary-swap"]
        print(
            f"  {name:22s} first pixel {tile['latency_to_first_pixel_s'] * 1e3:8.2f} ms"
            f"  (bs {bs['makespan_s'] * 1e3:8.2f} ms)"
            f"  advantage {row['first_pixel_advantage']:6.2f}x"
            f"  frame {tile['makespan_s'] * 1e3:8.2f} ms"
        )

    modes: dict = {}
    if os.path.exists(args.out):
        with open(args.out, "r", encoding="utf-8") as fh:
            modes = json.load(fh).get("modes", {})

    problems = check(results, modes, mode)
    for problem in problems:
        print(f"REGRESSION: {problem}", file=sys.stderr)

    if args.update:
        modes[mode] = results
        payload = {
            "schema": 1,
            "note": (
                "tile-routed compositing latencies from benchmarks/bench_tile.py; "
                "'latency' records latency-to-first-pixel / p50 / makespan for "
                "tile-routed:rect vs binary-swap:raw and radix-k:rect-rle on "
                "synthetic sparse workloads (sim backend, event engine, flat "
                "and fat-tree topologies), with the tile-routed final image "
                "asserted bit-identical to binary-swap:raw before timing counts"
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
