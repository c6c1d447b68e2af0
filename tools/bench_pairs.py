#!/usr/bin/env python
"""Alternating parent/change pairs of the end-to-end benchmark.

    python tools/bench_pairs.py --against <git-rev> --workload W [W ...] [--pairs 10] [--seed N]

Checks ``<git-rev>`` out into a scratch directory (``git archive``: the
committed files and nothing else, which is also what the benchmark's
driver measures) and runs the *unmodified* driver form of
``BENCHMARK.json`` — ``benchmarks/e2e/run.py --workload W --seed N
--seconds <run_seconds> --trace 0`` — alternately there and in this
working tree, never two at once, swapping which side goes first each
pair.  Several workloads run one after another, each with the full pair
protocol and its own table.  Per end-to-end metric a table prints both
medians, both quartile pairs and the win count, then ``correct``/
``failed`` per side: the protocol of the ``choosing-metrics`` guide,
section 8.  A gain may be claimed when the change wins at least nine
tenths of the pairs (ties count for neither) and the medians differ by
more than the parent's own quartile spread; the ``gain`` column says
whether both hold.  Where the first frame is not the whole op, one more
row per side gives the median first frame over the median op, the share
the progressive direction tracks.  The ``regress`` column judges the other direction
against the metric's ``bound`` in ``BENCHMARK.json``: ``worse`` when
the change median is worse than the parent median by more than the
bound; ``unresolved`` when the parent's quartile spread over its median
exceeds the bound and not every change run beats every parent run;
``ok`` otherwise.

Writes nothing but the scratch checkout and what ``run.py`` itself
leaves in its git-ignored ``benchmarks/e2e/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 600


def checkout(rev: str, scratch: str) -> str:
    """The committed files of ``rev`` under ``scratch`` (reused if there)."""
    sha = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout.strip()
    tree = os.path.join(scratch, f"parent-{sha[:12]}")
    if not os.path.isdir(tree):
        os.makedirs(tree)
        archive = subprocess.Popen(["git", "archive", sha], cwd=ROOT, stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", tree], stdin=archive.stdout, check=True)
        if archive.wait():
            raise SystemExit(f"git archive {sha} failed")
    return tree


def run_once(command: list[str], tree: str) -> dict:
    """One driver run in ``tree``: the JSON object on its last stdout line."""
    done = subprocess.run(
        command, cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
    )
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"no result line from {' '.join(command)} in {tree}:\n{done.stderr}")
    return json.loads(lines[-1])


def regress(sign: float, bound: float, parent: list[float], change: list[float]) -> str:
    """``worse``/``unresolved``/``ok`` for one metric (simplicity guide)."""
    p1, p2, p3 = np.percentile(parent, [25, 50, 75])
    if sign * (np.median(change) - p2) < -bound * abs(p2):
        return "worse"
    all_beat = min(sign * c for c in change) > max(sign * p for p in parent)
    if p3 - p1 > bound * abs(p2) and not all_beat:
        return "unresolved"
    return "ok"


def report(metrics: list[dict], runs: dict[str, list[dict]]) -> str:
    pairs = len(runs["parent"])
    head = (f"{'metric':20s} {'unit':5s} {'parent q1/med/q3':>28s} "
            f"{'change q1/med/q3':>28s} {'ratio':>6s} {'wins':>6s}  gain  regress")
    lines = [head, "-" * len(head)]
    for metric in metrics:
        name = metric["name"]
        sides = {
            side: [run["metrics"][name]["value"] for run in runs[side]]
            for side in ("parent", "change")
        }
        sign = 1.0 if metric["better"] == "higher" else -1.0
        wins = sum(sign * (c - p) > 0 for p, c in zip(sides["parent"], sides["change"]))
        p1, p2, p3 = np.percentile(sides["parent"], [25, 50, 75])
        c1, c2, c3 = np.percentile(sides["change"], [25, 50, 75])
        gain = wins >= 0.9 * pairs and sign * (c2 - p2) > p3 - p1
        lines.append(
            f"{name:20s} {metric['unit']:5s} {p1:8.2f} /{p2:8.2f} /{p3:8.2f} "
            f"{c1:8.2f} /{c2:8.2f} /{c3:8.2f} {c2 / p2 if p2 else float('nan'):6.2f} "
            f"{wins:3d}/{pairs:<2d}  {'yes' if gain else 'no':4s}  "
            f"{regress(sign, metric['bound'], sides['parent'], sides['change'])}"
        )
    medians = {
        side: [np.median([run["metrics"][name]["value"] for run in runs[side]])
               for name in ("first_frame_ms_p50", "op_ms_p50")]
        for side in ("parent", "change")
    }
    if any(first != op for first, op in medians.values()):
        for side, (first, op) in medians.items():
            lines.append(f"{side}: first frame / op {first / op:.2f} "
                         f"(medians {first:.1f} / {op:.1f} ms)")
    for side in ("parent", "change"):
        lines.append(
            f"{side}: correct {sum(run['correct'] for run in runs[side])}/{pairs}, "
            f"failed ops {sum(run['failed'] for run in runs[side])} "
            f"of {sum(run['attempted'] for run in runs[side])}"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        benchmark = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True, metavar="GIT-REV", help="the parent side")
    parser.add_argument("--workload", required=True, nargs="+",
                        choices=[w["name"] for w in benchmark["workloads"]])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scratch", default=os.path.join(tempfile.gettempdir(), "repro-bench-pairs"),
                        help="where the parent checkout lives (default: %(default)s)")
    args = parser.parse_args(argv)

    trees = {"parent": checkout(args.against, args.scratch), "change": ROOT}
    for workload in args.workload:
        command = [*benchmark["command"], "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(benchmark["run_seconds"]), "--trace", "0"]
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        for pair in range(args.pairs):
            for side in ("parent", "change") if pair % 2 == 0 else ("change", "parent"):
                result = run_once(command, trees[side])
                runs[side].append(result)
                shown = "  ".join(f"{m['name']} {result['metrics'][m['name']]['value']:.2f}"
                                  for m in benchmark["end_to_end"])
                print(f"{workload} pair {pair + 1:2d} {side:6s} {shown}",
                      file=sys.stderr, flush=True)
        print(f"{workload}, seed {args.seed}, {args.pairs} pairs against {args.against} "
              f"({os.path.basename(trees['parent'])})")
        print(report(benchmark["end_to_end"], runs), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
