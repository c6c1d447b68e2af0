#!/usr/bin/env python
"""Nightly chaos soak: loop the randomized fault matrix on fresh seeds.

Each iteration runs the chaos + recovery suites with a distinct
``REPRO_CHAOS_SEED_OFFSET``, so the randomized matrix keeps exploring
new fault scenarios while every failure stays reproducible: on a failing
iteration the exact seed window is known, and the fault plans behind it
are regenerated (via :func:`repro.cluster.faults.random_plan`) and saved
as ``repro.fault-plan/1`` JSON artifacts for the bug report.

Each iteration also runs a small schedule-exploration sweep
(:class:`repro.cluster.explore.Explorer`): seeded random interleavings
of the canonical crash+delay scenario, seeds derived from the same
offset so the explored schedules keep moving night over night.  Failing
interleavings archive their replayable ``repro.sched-trace/1`` decision
traces under ``fail-<offset>/sched-traces/`` — right next to the
regenerated fault plans — and the per-iteration explorer counts feed an
``explorer`` flake-rate block in the archive totals.

Each iteration further runs a serve-mode burst through the real file
spool (:func:`run_serve_sweep`): a seed-derived job burst under a
bounded admission queue with one pre-forged expired orphan claim, so
overload shedding and lease reclamation both fire nightly; the
shed/reclaim rates land in a ``serve`` block of the archive totals.

Every run also writes a ``repro.soak-summary/1`` archive JSON
(``--archive``, default ``<artifacts>/soak-summary.json``) holding one
record per iteration — seed offset, wall seconds, pass/fail, explorer
classification counts — plus the aggregate flake rates, so nightly
trends (slowdowns, rising flake rates) are visible by diffing archives
across nights.  The archive is written atomically after *each*
iteration, so a killed soak still leaves a complete record of what ran.

Usage::

    python tools/soak.py [--minutes N] [--iterations K]
                         [--artifacts DIR] [--archive FILE]
                         [--offset-step K] [--explore-interleavings N]

Environment:

* ``SOAK_MINUTES`` — default time budget (CLI ``--minutes`` wins).
* ``REPRO_CHAOS_SEED_OFFSET`` — starting offset (default: derived from
  the clock so independent nightly runs diverge).

Exit status is non-zero when any iteration failed; the artifacts
directory then holds one ``fail-<offset>/`` folder per failing window
with the pytest tail and the regenerated fault plans.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Mirrors the chaos matrix geometry (tests/test_chaos.py).
MATRIX_SEEDS = 8
NUM_RANKS = 4
NUM_STAGES = 2

#: Archive schema identifier (bump on layout changes).
ARCHIVE_SCHEMA = "repro.soak-summary/1"

#: Per-iteration schedule-exploration sweep width (0 disables).
EXPLORE_INTERLEAVINGS = 4
EXPLORE_RANKS = 8

#: Per-iteration serve-mode burst size (0 disables).
SERVE_JOBS = 4


def _pytest_command(offset: int, timeout_flag: bool) -> list[str]:
    cmd = [
        sys.executable, "-m", "pytest",
        "tests/test_chaos.py", "tests/test_recovery.py", "-q",
    ]
    if timeout_flag:
        cmd += ["--timeout=120", "--timeout-method=signal"]
    return cmd


def _have_pytest_timeout() -> bool:
    try:
        import pytest_timeout  # noqa: F401
        return True
    except ImportError:
        return False


def _save_failure_artifacts(artifacts: str, offset: int, output: str) -> None:
    """Persist the failing window: pytest tail + regenerated fault plans."""
    folder = os.path.join(artifacts, f"fail-{offset}")
    os.makedirs(folder, exist_ok=True)
    with open(os.path.join(folder, "pytest-output.txt"), "w", encoding="utf-8") as fh:
        fh.write(output)
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
    try:
        from repro.cluster.faults import random_plan

        for seed in range(offset, offset + MATRIX_SEEDS):
            plan = random_plan(seed, num_ranks=NUM_RANKS, num_stages=NUM_STAGES)
            plan.save(os.path.join(folder, f"fault-plan-seed{seed}.json"))
    except Exception as exc:  # artifact capture is best-effort
        with open(os.path.join(folder, "plan-dump-error.txt"), "w", encoding="utf-8") as fh:
            fh.write(repr(exc))
    finally:
        sys.path.pop(0)


def run_explorer_sweep(offset: int, interleavings: int, artifacts: str) -> dict:
    """Seeded random-walk schedule exploration for one soak iteration.

    Returns a record with the interleaving count, classification
    counts, failing-trace paths (archived under
    ``fail-<offset>/sched-traces/``), and ``ok``.  Runs in-process: the
    explorer is deterministic per seed, so a failing walk's trace
    replays the exact interleaving offline.
    """
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
    try:
        from repro.cluster.explore import Explorer, default_fault_plan
        from repro.pipeline.config import RunConfig

        explorer = Explorer(
            RunConfig(
                method="binary-swap:raw",
                num_ranks=EXPLORE_RANKS,
                image_size=32,
                volume_shape=(32, 32, 16),
            ),
            default_fault_plan(EXPLORE_RANKS),
            trace_dir=os.path.join(artifacts, f"fail-{offset}", "sched-traces"),
        )
        report = explorer.run("random", interleavings, seed=offset)
        return {
            "interleavings": len(report.results),
            "counts": report.counts(),
            "failures": len(report.failures),
            "failing_traces": [
                r.trace_path for r in report.failures if r.trace_path
            ],
            "ok": report.ok,
        }
    except Exception as exc:  # an explorer crash is itself a failure
        return {
            "interleavings": 0,
            "counts": {},
            "failures": 1,
            "failing_traces": [],
            "error": repr(exc),
            "ok": False,
        }
    finally:
        sys.path.pop(0)


def run_serve_sweep(offset: int, jobs: int, artifacts: str) -> dict:
    """One serve-mode soak burst: overload + lease-reclaim through the
    real file spool.

    Submits a seed-derived burst of jobs (one pre-forged as an expired
    orphaned claim, so reclamation fires every iteration) and serves
    them under a bounded queue with the ``reject`` policy.  Returns the
    shed/reclaim telemetry that feeds the archive's ``serve`` block:
    every job must *settle* — a rendered result or a typed
    rejection — for the sweep to count as ok.
    """
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
    try:
        import tempfile

        from repro.pipeline.config import RunConfig
        from repro.serving import load_result, serve, submit_job

        with tempfile.TemporaryDirectory(prefix=f"soak-serve-{offset}-") as spool:
            cfg = RunConfig(
                dataset="sphere", image_size=48, num_ranks=4,
                method="bsbrc", volume_shape=(32, 32, 16),
            )
            job_ids = [
                submit_job(
                    spool,
                    job_id=f"soak-{offset}-{i}",
                    deltas={"rot_y": float((offset + i * 7) % 90)},
                )
                for i in range(jobs)
            ]
            # Forge one expired orphan (a crashed server's claim with a
            # long-dead lease) so reclamation runs on every sweep.
            orphan = os.path.join(spool, "work", f"{job_ids[0]}.a1.json")
            os.replace(os.path.join(spool, "jobs", f"{job_ids[0]}.json"), orphan)
            ancient = time.time() - 3600
            os.utime(orphan, (ancient, ancient))
            serve(
                spool, cfg, max_workers=2,
                queue_limit=max(2, jobs // 2), shed_policy="reject",
                lease_s=1.0, idle_timeout=2.0, poll=0.01,
            )
            docs = [load_result(spool, job_id) for job_id in job_ids]
            settled = sum(1 for d in docs if d is not None)
            rendered = sum(1 for d in docs if d and d.get("ok"))
            shed = sum(
                1 for d in docs
                if d and not d.get("ok")
                and d.get("error") in ("JobRejectedError", "JobShedError")
            )
            reclaimed = sum(1 for d in docs if d and d.get("attempt", 1) > 1)
            return {
                "jobs": jobs,
                "settled": settled,
                "rendered": rendered,
                "shed": shed,
                "reclaimed": reclaimed,
                "shed_rate": shed / jobs if jobs else 0.0,
                "reclaim_rate": reclaimed / jobs if jobs else 0.0,
                "ok": settled == jobs and rendered >= 1 and reclaimed >= 1,
            }
    except Exception as exc:  # a serve crash is itself a failure
        return {
            "jobs": jobs, "settled": 0, "rendered": 0,
            "shed": 0, "reclaimed": 0,
            "shed_rate": 0.0, "reclaim_rate": 0.0,
            "error": repr(exc), "ok": False,
        }
    finally:
        sys.path.pop(0)


def summarize(iterations: list[dict]) -> dict:
    """Aggregate per-iteration records into the archive's totals block."""
    count = len(iterations)
    failures = sum(1 for it in iterations if not it["ok"])
    seconds = [it["seconds"] for it in iterations]
    explored = sum(it.get("explorer", {}).get("interleavings", 0) for it in iterations)
    explorer_failures = sum(
        it.get("explorer", {}).get("failures", 0) for it in iterations
    )
    serve_jobs = sum(it.get("serve", {}).get("jobs", 0) for it in iterations)
    serve_shed = sum(it.get("serve", {}).get("shed", 0) for it in iterations)
    serve_reclaimed = sum(it.get("serve", {}).get("reclaimed", 0) for it in iterations)
    serve_failures = sum(
        1 for it in iterations if it.get("serve") and not it["serve"]["ok"]
    )
    return {
        "iterations": count,
        "failures": failures,
        "flake_rate": (failures / count) if count else 0.0,
        "total_seconds": sum(seconds),
        "mean_seconds": (sum(seconds) / count) if count else 0.0,
        "max_seconds": max(seconds) if seconds else 0.0,
        "explorer": {
            "interleavings": explored,
            "failures": explorer_failures,
            "flake_rate": (explorer_failures / explored) if explored else 0.0,
        },
        "serve": {
            "jobs": serve_jobs,
            "shed": serve_shed,
            "reclaimed": serve_reclaimed,
            "failures": serve_failures,
            "shed_rate": (serve_shed / serve_jobs) if serve_jobs else 0.0,
            "reclaim_rate": (serve_reclaimed / serve_jobs) if serve_jobs else 0.0,
        },
    }


def write_archive(path: str, iterations: list[dict], *, started_at: str) -> None:
    """Atomically persist the soak archive (schema ``repro.soak-summary/1``)."""
    doc = {
        "schema": ARCHIVE_SCHEMA,
        "started_at": started_at,
        "matrix_seeds": MATRIX_SEEDS,
        "totals": summarize(iterations),
        "iterations": iterations,
    }
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    os.replace(tmp, path)


def run_iteration(
    offset: int,
    env_base: dict,
    timeout_flag: bool,
    artifacts: str,
    *,
    explore_interleavings: int = EXPLORE_INTERLEAVINGS,
    serve_jobs: int = SERVE_JOBS,
) -> dict:
    """One soak iteration: run the suites at ``offset``, record telemetry."""
    env = dict(env_base, REPRO_CHAOS_SEED_OFFSET=str(offset))
    started = time.monotonic()
    proc = subprocess.run(
        _pytest_command(offset, timeout_flag),
        cwd=REPO_ROOT, env=env, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
    )
    suites_ok = proc.returncode == 0
    if not suites_ok:
        tail = "\n".join(proc.stdout.splitlines()[-200:])
        _save_failure_artifacts(artifacts, offset, tail)
    explorer = None
    if explore_interleavings > 0:
        explorer = run_explorer_sweep(offset, explore_interleavings, artifacts)
    serve_record = None
    if serve_jobs > 0:
        serve_record = run_serve_sweep(offset, serve_jobs, artifacts)
    elapsed = time.monotonic() - started
    record = {
        "offset": offset,
        "seconds": round(elapsed, 3),
        "ok": (
            suites_ok
            and (explorer is None or explorer["ok"])
            and (serve_record is None or serve_record["ok"])
        ),
        "returncode": proc.returncode,
    }
    if explorer is not None:
        record["explorer"] = explorer
    if serve_record is not None:
        record["serve"] = serve_record
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--minutes", type=float,
        default=float(os.environ.get("SOAK_MINUTES", "20")),
        help="soak time budget in minutes (default: $SOAK_MINUTES or 20)",
    )
    parser.add_argument(
        "--iterations", type=int, default=None,
        help="run exactly K iterations instead of a time budget",
    )
    parser.add_argument(
        "--artifacts", default=os.path.join(REPO_ROOT, "soak-artifacts"),
        help="where failing fault plans and logs are written",
    )
    parser.add_argument(
        "--archive", default=None,
        help="soak-summary JSON path (default: <artifacts>/soak-summary.json)",
    )
    parser.add_argument(
        "--offset-step", type=int, default=MATRIX_SEEDS,
        help="seed-offset stride between iterations (default: matrix width)",
    )
    parser.add_argument(
        "--explore-interleavings", type=int, default=EXPLORE_INTERLEAVINGS,
        help="random schedule interleavings explored per iteration "
             f"(default: {EXPLORE_INTERLEAVINGS}; 0 disables the sweep)",
    )
    parser.add_argument(
        "--serve-jobs", type=int, default=SERVE_JOBS,
        help="serve-mode burst size per iteration: spool jobs pushed "
             "through overload + lease reclamation, shed/reclaim rates "
             f"archived (default: {SERVE_JOBS}; 0 disables the sweep)",
    )
    args = parser.parse_args(argv)
    archive = args.archive or os.path.join(args.artifacts, "soak-summary.json")

    offset = int(
        os.environ.get("REPRO_CHAOS_SEED_OFFSET", str(int(time.time()) % 100_000))
    )
    deadline = time.monotonic() + args.minutes * 60.0
    timeout_flag = _have_pytest_timeout()
    env_base = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
    started_at = time.strftime("%Y-%m-%dT%H:%M:%S%z")

    records: list[dict] = []
    while (
        len(records) < args.iterations
        if args.iterations is not None
        else time.monotonic() < deadline
    ):
        record = run_iteration(
            offset, env_base, timeout_flag, args.artifacts,
            explore_interleavings=args.explore_interleavings,
            serve_jobs=args.serve_jobs,
        )
        records.append(record)
        status = "ok" if record["ok"] else f"FAIL rc={record['returncode']}"
        explorer = record.get("explorer")
        if explorer is not None:
            status += (
                f" explore={explorer['interleavings'] - explorer['failures']}"
                f"/{explorer['interleavings']}"
            )
        serve_record = record.get("serve")
        if serve_record is not None:
            status += (
                f" serve={serve_record['settled']}/{serve_record['jobs']}"
                f" shed={serve_record['shed']}"
                f" reclaimed={serve_record['reclaimed']}"
            )
        print(
            f"[soak] iteration {len(records)} offset={offset} "
            f"{record['seconds']:.0f}s: {status}",
            flush=True,
        )
        # Archive after every iteration so a killed soak keeps its record.
        write_archive(archive, records, started_at=started_at)
        offset += args.offset_step

    totals = summarize(records)
    print(
        f"[soak] done: {totals['iterations']} iterations, "
        f"{totals['failures']} failing windows "
        f"(flake rate {totals['flake_rate']:.1%}, "
        f"mean {totals['mean_seconds']:.0f}s/iter)"
    )
    explorer_totals = totals["explorer"]
    if explorer_totals["interleavings"]:
        print(
            f"[soak] explorer: {explorer_totals['interleavings']} interleavings, "
            f"{explorer_totals['failures']} failing "
            f"(flake rate {explorer_totals['flake_rate']:.1%})"
        )
    serve_totals = totals["serve"]
    if serve_totals["jobs"]:
        print(
            f"[soak] serve: {serve_totals['jobs']} spool jobs, "
            f"shed rate {serve_totals['shed_rate']:.1%}, "
            f"reclaim rate {serve_totals['reclaim_rate']:.1%}, "
            f"{serve_totals['failures']} failing sweeps"
        )
    print(f"[soak] archive at {archive}")
    if totals["failures"]:
        print(f"[soak] artifacts in {args.artifacts}")
    return 1 if totals["failures"] else 0


if __name__ == "__main__":
    sys.exit(main())
