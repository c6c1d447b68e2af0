#!/usr/bin/env python
"""Simulator-scale benchmarks: the event engine's reason to exist.

Three measurements, all machine-readable in ``BENCH_sim_scale.json``:

``scheduler``
    Identical multi-frame workloads run on the min-heap **event** engine
    and on the round-robin **lockstep** oracle (``tests/oracles.py``), after asserting
    their virtual results agree exactly.  The ``ring`` workload is a
    pipelined ring composite (the registry's ``pipeline`` method shape):
    progress is fully serialized, so the lockstep engine pays a full
    O(P) resolve scan per completed hop — O(P²) per frame — while the
    event engine pays one heap pop.  This is the ≥ 10x acceptance
    criterion at P=256.  The ``swap+gather`` workload (binary-swap
    rounds plus a root gather per frame) shows the parallel-phase
    regime, where both engines do real matching work and the gap is
    structural rather than asymptotic.

``composite_p1024``
    Full compositing runs at P=1024 on synthetic sparse subimages
    (:mod:`repro.experiments.scale`) — binary-swap and radix-k
    ``(4,4,4,4,4)`` — each required to finish in < 10 s wall.

``engine_identity``
    Event vs lockstep on a real compositing run: final images compared
    bit-for-bit, per-rank byte/message totals and the makespan compared
    exactly.  The determinism contract, checked end to end.

Usage::

    python benchmarks/bench_sim_scale.py            # full scale
    python benchmarks/bench_sim_scale.py --smoke    # CI scale (seconds)
    python benchmarks/bench_sim_scale.py --update   # write baseline JSON
    python benchmarks/bench_sim_scale.py --check    # exit 1 on regression

``--check`` enforces the full-mode floors (P=1024 runs < 10 s, ring
speedup ≥ 10x at P=256) and, in any mode, fails when a workload's wall
time exceeds ``REGRESSION_FACTOR`` x the committed baseline for the
same mode — the CI smoke guard.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_ROOT, "src"))
sys.path.insert(1, os.path.join(_ROOT, "tests"))  # oracles.py: the lockstep side

BASELINE_PATH = os.path.join(_ROOT, "BENCH_sim_scale.json")

#: A workload "regresses" when its wall time doubles versus the baseline.
REGRESSION_FACTOR = 2.0
#: Full-mode acceptance floors.
P1024_WALL_CEILING_S = 10.0
SPEEDUP_FLOOR_P256 = 10.0


def _best(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


# --------------------------------------------------------------------------
# scheduler workloads (raw Simulator programs)
# --------------------------------------------------------------------------
def ring_workload(frames: int):
    """Pipelined ring composite: each frame's token circulates the ring.

    Fully serialized — exactly one rank can progress at any virtual
    instant, so the scheduler itself is the measured quantity.
    """

    def factory(ctx):
        async def program():
            size, rank = ctx.size, ctx.rank
            for frame in range(frames):
                if rank == 0:
                    if frame:
                        await ctx.recv(size - 1, tag=frame - 1)
                    await ctx.send(1, b"t", nbytes=1024, tag=frame)
                else:
                    await ctx.recv(rank - 1, tag=frame)
                    await ctx.compute(1e-7)
                    await ctx.send((rank + 1) % size, b"t", nbytes=1024, tag=frame)
            if rank == 0:
                await ctx.recv(size - 1, tag=frames - 1)

        return program()

    return factory


def swap_gather_workload(frames: int):
    """Binary-swap rounds plus a serialized root gather, per frame."""

    def factory(ctx):
        async def program():
            size, rank = ctx.size, ctx.rank
            rounds = size.bit_length() - 1
            for frame in range(frames):
                ctx.begin_stage(frame)
                nbytes = 16384
                for k in range(rounds):
                    peer = rank ^ (1 << k)
                    nbytes //= 2
                    await ctx.sendrecv(peer, b"x", nbytes=nbytes, tag=frame * 64 + k)
                if rank == 0:
                    for src in range(1, size):
                        await ctx.recv(src, tag=frame * 64 + 63)
                else:
                    await ctx.send(0, b"g", nbytes=256, tag=frame * 64 + 63)

        return program()

    return factory


def bench_scheduler(smoke: bool) -> dict:
    from oracles import LockstepSimulator
    from repro.cluster.model import SP2
    from repro.cluster.simulator import Simulator

    if smoke:
        cases = [("ring", ring_workload, 256, 12), ("swap+gather", swap_gather_workload, 256, 4)]
        repeats = 2
    else:
        cases = [
            ("ring", ring_workload, 64, 24),
            ("ring", ring_workload, 256, 24),
            ("swap+gather", swap_gather_workload, 256, 8),
        ]
        repeats = 3

    rows: dict[str, dict] = {}
    for name, make, num_ranks, frames in cases:
        ev = Simulator(num_ranks, SP2).run(make(frames))
        ls = LockstepSimulator(num_ranks, SP2).run(make(frames))
        if ev.makespan != ls.makespan:
            raise AssertionError(
                f"{name} P={num_ranks}: engines disagree on makespan "
                f"({ev.makespan} vs {ls.makespan})"
            )
        for r in range(num_ranks):
            if ev.rank_stats[r].comm_time != ls.rank_stats[r].comm_time:
                raise AssertionError(f"{name} P={num_ranks}: rank {r} comm_time differs")
        event_s = _best(
            lambda: Simulator(num_ranks, SP2).run(make(frames)), repeats
        )
        lockstep_s = _best(
            lambda: LockstepSimulator(num_ranks, SP2).run(make(frames)), repeats
        )
        rows[f"{name}_p{num_ranks}"] = {
            "detail": f"{name} workload, P={num_ranks}, {frames} frames, identical virtual results",
            "event_s": event_s,
            "lockstep_s": lockstep_s,
            "speedup": lockstep_s / event_s,
            "makespan": ev.makespan,
        }
    return rows


# --------------------------------------------------------------------------
# at-scale compositing
# --------------------------------------------------------------------------
def bench_composite(smoke: bool) -> dict:
    from repro.cluster.model import SP2
    from repro.experiments.scale import VIEW_DIR, synthetic_subimages
    from repro.pipeline.system import run_compositing
    from repro.volume.partition import recursive_bisect

    num_ranks = 256 if smoke else 1024
    image_size = 96
    fill = 0.2
    radix = (4, 4, 4, 4) if smoke else (4, 4, 4, 4, 4)
    plan = recursive_bisect((64, 64, 64), num_ranks)

    rows: dict[str, dict] = {}
    for key, method, options in (
        ("binary_swap", "bs", {}),
        ("radix_k", "radix-k:rect-rle", {"radix": radix}),
    ):
        images = synthetic_subimages(num_ranks, image_size, fill)
        t0 = time.perf_counter()
        run = run_compositing(images, method, plan, VIEW_DIR, SP2, **options)
        wall_s = time.perf_counter() - t0
        rows[f"{key}_p{num_ranks}"] = {
            "detail": (
                f"{run.method} P={num_ranks}, {image_size}px synthetic fill={fill}"
            ),
            "wall_s": wall_s,
            "modelled_makespan_s": run.stats.makespan,
        }
        del images, run
    return rows


# --------------------------------------------------------------------------
# engine identity on a real compositing run
# --------------------------------------------------------------------------
def bench_identity(smoke: bool) -> dict:
    from oracles import lockstep
    from repro.cluster.model import SP2
    from repro.experiments.scale import VIEW_DIR, synthetic_subimages
    from repro.pipeline.system import run_compositing
    from repro.volume.partition import recursive_bisect

    num_ranks = 64 if smoke else 256
    plan = recursive_bisect((64, 64, 64), num_ranks)
    ev = run_compositing(synthetic_subimages(num_ranks, 96, 0.2), "bsbrc", plan, VIEW_DIR, SP2)
    with lockstep():
        ls = run_compositing(
            synthetic_subimages(num_ranks, 96, 0.2), "bsbrc", plan, VIEW_DIR, SP2
        )
    for oe, ol in zip(ev.outcomes, ls.outcomes):
        if not (
            np.array_equal(oe.image.intensity, ol.image.intensity)
            and np.array_equal(oe.image.opacity, ol.image.opacity)
        ):
            raise AssertionError("event and lockstep engines produced different images")
    if ev.stats.makespan != ls.stats.makespan:
        raise AssertionError("event and lockstep engines disagree on makespan")
    for r in range(num_ranks):
        se, sl = ev.stats.rank_stats[r], ls.stats.rank_stats[r]
        if (se.bytes_sent, se.msgs_sent, se.comm_time, se.comp_time) != (
            sl.bytes_sent, sl.msgs_sent, sl.comm_time, sl.comp_time
        ):
            raise AssertionError(f"rank {r}: per-rank accounting differs between engines")
    return {
        "detail": f"bsbrc P={num_ranks}: images, per-rank accounting and makespan bit-identical",
        "checked_ranks": num_ranks,
        "makespan": ev.stats.makespan,
    }


# --------------------------------------------------------------------------
# driver
# --------------------------------------------------------------------------
def run(smoke: bool) -> dict:
    results: dict[str, dict] = {}
    results["scheduler"] = bench_scheduler(smoke)
    results["composite"] = bench_composite(smoke)
    results["engine_identity"] = bench_identity(smoke)
    return results


def check(results: dict, baseline_modes: dict, mode: str) -> list[str]:
    problems: list[str] = []
    baseline = baseline_modes.get(mode, {})

    # Wall-clock regression guard (the CI smoke job's teeth).
    for section in ("scheduler", "composite"):
        base_rows = baseline.get(section, {})
        for name, row in results.get(section, {}).items():
            wall_key = "event_s" if "event_s" in row else "wall_s"
            base = base_rows.get(name)
            if base and wall_key in base:
                if row[wall_key] > base[wall_key] * REGRESSION_FACTOR:
                    problems.append(
                        f"{section}/{name}: {row[wall_key]:.3f} s is >"
                        f"{REGRESSION_FACTOR:g}x the recorded baseline "
                        f"{base[wall_key]:.3f} s"
                    )

    if mode == "full":
        for name, row in results.get("composite", {}).items():
            if row["wall_s"] >= P1024_WALL_CEILING_S:
                problems.append(
                    f"composite/{name}: {row['wall_s']:.2f} s breaches the "
                    f"{P1024_WALL_CEILING_S:g} s ceiling"
                )
        ring = results.get("scheduler", {}).get("ring_p256")
        if ring and ring["speedup"] < SPEEDUP_FLOOR_P256:
            problems.append(
                f"scheduler/ring_p256: speedup {ring['speedup']:.1f}x is below "
                f"the promised {SPEEDUP_FLOOR_P256:g}x floor"
            )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="reduced CI-scale variant (P=256)")
    parser.add_argument("--check", action="store_true", help="exit 1 on regression vs baseline")
    parser.add_argument("--update", action="store_true", help="record results in the baseline JSON")
    parser.add_argument("--out", default=BASELINE_PATH, help="baseline JSON path")
    args = parser.parse_args(argv)
    mode = "smoke" if args.smoke else "full"

    results = run(args.smoke)

    print(f"simulator-scale benchmarks ({mode} mode):")
    for name, row in results["scheduler"].items():
        print(
            f"  scheduler {name:18s} event {row['event_s'] * 1e3:9.1f} ms   "
            f"lockstep {row['lockstep_s'] * 1e3:9.1f} ms   "
            f"speedup {row['speedup']:6.1f}x"
        )
    for name, row in results["composite"].items():
        print(
            f"  composite {name:18s} wall {row['wall_s']:9.2f} s    "
            f"modelled {row['modelled_makespan_s'] * 1e3:9.2f} ms"
        )
    print(f"  identity  {results['engine_identity']['detail']}")

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
                "simulator-scale results from benchmarks/bench_sim_scale.py; "
                "'scheduler' times identical workloads on the event vs lockstep "
                "engines (virtual results asserted equal first), 'composite' is "
                "wall time for full P=1024 compositing runs on synthetic sparse "
                "subimages, 'engine_identity' checks bit-identical results end "
                "to end"
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
