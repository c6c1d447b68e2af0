#!/usr/bin/env python3
"""The repo's end-to-end benchmark: one command, every workload verified.

    python benchmarks/e2e/run.py                      # all workloads, e2e table
    python benchmarks/e2e/run.py --trace              # per-layer table + traces
    python benchmarks/e2e/run.py --check              # against baseline.json
    python benchmarks/e2e/run.py --repeat 2           # A/A agreement table
    python benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

The last form is the driver's: it ends with one JSON object on the last
line of stdout.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import harness as h  # noqa: E402
from probes import probes_main  # noqa: E402
from workloads import WORKLOADS, block_main  # noqa: E402

#: ``run_seconds`` of BENCHMARK.json: timed seconds of one driver run.
RUN_SECONDS = 10
#: Timed seconds per workload when a person runs the suite.
SUITE_SECONDS = 20


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                        help="run one workload (default: all six)")
    parser.add_argument("--seed", type=int, default=h.DEFAULT_SEED,
                        help="drives the camera angles and nothing else")
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"timed seconds per workload (default: {SUITE_SECONDS})")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="traced run: per-layer metrics")
    parser.add_argument("--check", action="store_true",
                        help="compare with baseline.json; exit 1 on a regression")
    parser.add_argument("--update", action="store_true",
                        help="store this run's numbers in baseline.json")
    parser.add_argument("--update-golden", action="store_true",
                        help="re-pin golden.json (default seed only)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="interleaved sets of the same code (2 = A/A report)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny scenes, for the self-tests; numbers mean nothing")
    parser.add_argument("--block", help=argparse.SUPPRESS)
    parser.add_argument("--probes", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def run_sets(names, seed, seconds, size, repeat, budget):
    """``repeat`` sets of ``BLOCKS`` blocks per workload, round-robin
    (A1 B1 .. A2 B2 ..) so host drift lands on every workload alike."""
    h.time_import("repro")  # throw-away: page cache and .pyc files warm
    sets = [{name: [] for name in names} for _ in range(repeat)]
    for block in range(h.BLOCKS):
        for blocks in sets:
            for name in names:
                limit = budget.block_limit_s(seconds / h.BLOCKS)
                if limit is None and blocks[name]:
                    print(f"benchmark: {name} block {block} skipped, the host is "
                          "too slow for it to fit the run's time", file=sys.stderr)
                    continue
                blocks[name].append(h.run_block(
                    name, seed, block, seconds / h.BLOCKS, size, limit_s=limit))
    return sets


def run_traced(names, seed, seconds, size, budget):
    """One traced block per workload plus the layer probes (once)."""
    h.time_import("repro.experiments.cli")
    imports = [h.time_import("repro.experiments.cli") for _ in range(2)]
    blocks = {name: h.run_block(name, seed, 0, seconds / h.BLOCKS, size, trace=True,
                                limit_s=budget.block_limit_s(seconds / h.BLOCKS))
              for name in names}
    records, clean = h.run_child("probes", {"seed": seed, "size": size},
                                 min(2 * h.SETUP_TIMEOUT_S, max(1.0, budget.left())))
    probes = next((r for r in records if r.get("ev") == "probes"),
                  {"ok": False, "metrics": {}})
    probes["ok"] = probes["ok"] and clean
    probes["metrics"]["experiments.import_s"] = h.median(imports)
    return blocks, probes


def traced_metrics(block: h.BlockResult) -> dict[str, float]:
    """The per-layer metrics that describe the traced workload itself."""
    timed = [o for o in block.ops if o.get("timed") and o["ok"]]
    traced = [o["ms"] for o in timed if o["traced"]]
    plain = [o["ms"] for o in timed if not o["traced"]]
    pinned = [o["modelled_ms"] for o in block.ops if o.get("pinned") and o["ok"]]
    trace = block.attribution or {"coverage": 0.0, "self_share": {}}
    out = {
        "modelled.ms": sum(pinned) / len(pinned) if pinned else 0.0,
        "host.cpu_ms_per_op": block.cpu_ms_per_op or 0.0,
        "host.trace_overhead_share":
            h.median(traced) / h.median(plain) - 1.0 if traced and plain else 0.0,
        "trace.coverage_share": trace["coverage"],
    }
    for layer in h.LAYERS:
        out[f"trace.self_share.{layer}"] = trace["self_share"].get(layer, 0.0)
    return out


def check_golden(results, args, size) -> list[str]:
    """Pinned ops against golden.json (default seed, full size only)."""
    if args.seed != h.DEFAULT_SEED or size != "full":
        return []
    if args.update_golden:
        # Merge: a one-workload or traced run re-pins only what it ran.
        golden = h.load_json(h.GOLDEN_JSON) if os.path.exists(h.GOLDEN_JSON) else {}
        fresh = h.golden_from(results, args.seed)
        fresh["workloads"] = {**golden.get("workloads", {}), **fresh["workloads"]}
        h.save_json(h.GOLDEN_JSON, fresh)
        return []
    golden = h.load_json(h.GOLDEN_JSON)
    return [p for name, blocks in results.items()
            for p in h.golden_mismatches(name, blocks, golden)]


class Outcome:
    """What one invocation measured, whichever mode it ran in."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.status = 0
        #: The one workload's metrics, in the driver's form.
        self.metrics: dict[str, float] = {}

    def driver_line(self, table) -> str:
        missing = [m.name for m in table if self.metrics.get(m.name) is None]
        if missing:
            self.problems.append(f"not measured: {missing}")
        return json.dumps({
            "correct": not self.failed and not self.problems,
            "attempted": max(1, self.attempted),
            "failed": self.failed,
            "metrics": {m.name: {"value": self.metrics.get(m.name) or 0.0, "unit": m.unit}
                        for m in table},
        })


def traced_mode(args, names, size, seconds, baseline, say, budget) -> Outcome:
    out = Outcome()
    blocks, probes = run_traced(names, args.seed, seconds, size, budget)
    out.problems += check_golden({n: [b] for n, b in blocks.items()}, args, size)
    if not probes["ok"]:
        out.problems.append("a layer probe failed its own output check")
    per_workload = {n: traced_metrics(b) for n, b in blocks.items()}
    say(h.format_per_layer(probes["metrics"]))
    for name, values in per_workload.items():
        say(f"\n[{name}] traced block (trace: benchmarks/e2e/out/trace-{name}.json)")
        say(h.format_per_layer(values))
    if args.update:
        baseline["per_layer"] = {"seed": args.seed, "probes": probes["metrics"],
                                 "by_workload": per_workload}
    out.attempted = sum(len(b.ops) for b in blocks.values())
    out.failed = sum(b.failed for b in blocks.values())
    if args.workload:
        out.metrics = {**probes["metrics"], **per_workload[args.workload]}
    return out


def untraced_mode(args, names, size, seconds, baseline, say, budget) -> Outcome:
    out = Outcome()
    sets = run_sets(names, args.seed, seconds, size, max(1, args.repeat), budget)
    for results in sets:
        out.problems += check_golden(results, args, size)
    summaries = [{n: h.summarise(n, blocks, WORKLOADS[n].clients)
                  for n, blocks in results.items()} for results in sets]
    first = summaries[0]
    say(h.format_e2e(first))
    cells = [cell for summary in summaries for cell in summary.values()]
    out.attempted = sum(cell["attempted"] for cell in cells)
    out.failed = sum(cell["failed"] for cell in cells)
    if len(summaries) > 1:
        rows = h.compare_rows(first, summaries[1], symmetric=True)
        say("\nA/A: two interleaved sets of the same code")
        say(h.format_rows(rows, ("set 1", "set 2")))
        h.save_json(
            h.AA_JSON if args.update else os.path.join(h.OUT_DIR, "AA.json"),
            {"schema": "repro.e2e-aa/1", "host": h.host_info(), "seed": args.seed,
             "seconds": seconds, "size": size,
             "misses": sum(r["verdict"] == "regressed" for r in rows), "rows": rows})
    if args.check:
        rows = h.compare_rows(baseline.get("end_to_end", {}), first)
        say("\n--check against baseline.json")
        say(h.format_rows(rows))
        out.status = int(any(r["verdict"] == "regressed" for r in rows))
    if args.update:
        baseline.update(schema="repro.e2e-baseline/1", host=h.host_info(),
                        seed=args.seed, seconds=seconds)
        baseline.setdefault("end_to_end", {}).update(first)
    if args.workload:
        out.metrics = {name: cell["value"]
                       for name, cell in first[args.workload]["metrics"].items()}
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    h.require_program()
    if args.block:
        return block_main(json.loads(args.block))
    if args.probes:
        return probes_main(json.loads(args.probes))

    names = [args.workload] if args.workload else list(WORKLOADS)
    size = "smoke" if args.smoke else "full"
    seconds = args.seconds if args.seconds is not None else SUITE_SECONDS
    # The driver's form keeps stdout for the result line.
    say = lambda text: print(text, file=sys.stderr if args.workload else sys.stdout)
    baseline = h.load_json(h.BASELINE_JSON) if os.path.exists(h.BASELINE_JSON) else {}
    mode = traced_mode if args.trace else untraced_mode
    # Only the driver's form has a time limit to keep.
    budget = h.Budget(h.RUN_BUDGET_S if args.workload else None)
    out = mode(args, names, size, seconds, baseline, say, budget)
    if args.workload:
        line = out.driver_line(h.PER_LAYER if args.trace else
                               [m for m in h.E2E if m.driver])
    for problem in out.problems:
        print(f"benchmark: {problem}", file=sys.stderr)
    if args.update and not args.smoke:
        h.save_json(h.BASELINE_JSON, baseline)
        h.save_json(h.BENCHMARK_JSON, h.benchmark_doc(
            [(n, cls.why) for n, cls in WORKLOADS.items()], RUN_SECONDS))
    if args.workload:
        print(line)
        return out.status  # the result line carries correct/failed
    wrong = bool(out.failed or out.problems)
    say(f"\nattempted {out.attempted} ops, failed {out.failed}; "
        f"{'OUTPUTS WRONG' if wrong else 'outputs correct'}")
    return out.status or int(wrong)


if __name__ == "__main__":
    raise SystemExit(main())
