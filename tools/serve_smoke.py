#!/usr/bin/env python
"""End-to-end smoke for the file-spool render service (CI: serve-smoke).

Drives the real CLI: five jobs land in one spool — mixed methods
including ``tile-routed:rle`` and ``bslc`` (whose stage events address
index parts), two carrying the same render-crash fault plan, one under
``degrade`` QoS and one under ``available`` QoS — and one ``serve``
invocation multiplexes their five sessions over a single bounded worker
pool.  Afterwards the script
asserts, against the on-disk artifacts:

* every streamed ``repro.serve-event/4`` sequence is monotone in
  coverage and ends with a ``final`` event at coverage 1.0;
* every event log, folded through ``ProgressiveFrame.replay``, equals
  the job's ``final.npz`` byte for byte (a ``-0.0`` counts) — for a clean job already
  *without* its ``final`` event, from the stage parts and the tiles
  alone — and its size is printed;
* every persisted final frame is bit-identical to a one-shot
  ``SortLastSystem.run`` of the same configuration (the ``degrade``
  crash job compared against a one-shot degraded run, the
  ``available`` one against a clean run);
* the ``degrade`` crash job came back *flagged* (``ok`` with
  ``outcome=degraded``), not failed;
* the ``available`` crash job came back whole (``ok``, ``recovered``,
  ``outcome=resumed``): the lockstep replay is lossless on the
  simulator too;
* a malformed job file (unknown QoS) written straight into ``jobs/``
  is answered with an ``ok: false`` result and does not stop the
  server from serving the five real jobs.

Exit status is non-zero on any violation, so CI can gate on it.  The
spool (under the system temp dir) is removed on success and kept, with
its path printed, on failure.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from repro.cluster.faults import FaultPlan, FaultRule  # noqa: E402
from repro.pipeline.config import RunConfig  # noqa: E402
from repro.pipeline.system import SortLastSystem  # noqa: E402
from repro.serving import JOB_SCHEMA, ProgressiveFrame, load_result, read_events  # noqa: E402

BASE = dict(dataset="sphere", method="bsbrc", num_ranks=4, image_size=64,
            machine="sp2")


def _cli(*argv: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.experiments.cli", *argv],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"CLI {' '.join(argv[:2])} exited {proc.returncode}")
    return proc.stdout


def _submit(spool: str, *extra: str) -> str:
    out = _cli("submit", "--spool", spool, *extra)
    match = re.search(r"\[submitted (\S+) to ", out)
    if match is None:
        raise SystemExit(f"could not parse job id from submit output: {out!r}")
    return match.group(1)


def _check(label: str, ok: bool, detail: str = "") -> None:
    print(f"  {'ok' if ok else 'FAIL'}  {label}" + (f" ({detail})" if detail else ""))
    if not ok:
        raise SystemExit(f"serve-smoke: {label} failed {detail}")


def _same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal dtype, shape and bytes: ``np.array_equal`` cannot see a ``-0.0``."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _verify(spool: str, job_id: str, want, *, outcome: str = "clean") -> None:
    doc = load_result(spool, job_id)
    degraded = outcome == "degraded"
    _check(f"{job_id}: result present", doc is not None)
    _check(f"{job_id}: ok", bool(doc["ok"]), str(doc.get("error")))
    _check(f"{job_id}: degraded flag", doc["degraded"] == degraded,
           f"want {degraded}, got {doc['degraded']}")
    _check(f"{job_id}: recovered flag", doc["recovered"] == (outcome == "resumed"),
           f"got {doc['recovered']}")
    _check(f"{job_id}: outcome", doc["outcome"] == outcome, doc["outcome"])
    events = read_events(spool, job_id)
    covs = [e["coverage"] for e in events]
    _check(f"{job_id}: streamed events present", bool(events))
    _check(f"{job_id}: coverage monotone",
           all(a <= b for a, b in zip(covs, covs[1:])))
    _check(f"{job_id}: final event at 1.0",
           events[-1]["kind"] == "final" and events[-1]["coverage"] == 1.0)
    size = BASE["image_size"]
    # A clean job's partial frames already tile the image; a degraded
    # one needs its (flagged) final to fill what the lost rank owned.
    folds = {"event log": events} if degraded else {
        "event log": events, "partial frames alone": events[:-1]}
    with np.load(doc["image"]) as npz:
        _check(f"{job_id}: final intensity bit-identical to one-shot",
               np.array_equal(npz["intensity"], want.final_image.intensity))
        _check(f"{job_id}: final opacity bit-identical to one-shot",
               np.array_equal(npz["opacity"], want.final_image.opacity))
        for what, docs in folds.items():
            frame = ProgressiveFrame.replay(docs, size, size)
            _check(f"{job_id}: replayed {what} byte-identical to final.npz",
                   _same_bytes(frame.image.intensity, npz["intensity"])
                   and _same_bytes(frame.image.opacity, npz["opacity"]))
    log = os.path.join(spool, "out", f"{job_id}.events.jsonl")
    print(f"  {job_id}: {len(events)} events, {os.path.getsize(log)} event bytes")


def main() -> None:
    spool = tempfile.mkdtemp(prefix="serve-smoke-")
    try:
        _smoke(spool)
    except BaseException:
        print(f"serve-smoke: spool kept for inspection at {spool}", file=sys.stderr)
        raise
    shutil.rmtree(spool)


def _smoke(spool: str) -> None:
    plan = FaultPlan(
        rules=(FaultRule(kind="crash", rank=1, phase="render"),), seed=5
    )
    plan_path = os.path.join(spool, "crash-plan.json")
    plan.save(plan_path)

    print(f"serve-smoke: spool at {spool}")
    j_alice = _submit(spool, "--session", "alice", "--qos", "lossless",
                      "--method", "binary-swap:rle")
    j_bob = _submit(spool, "--session", "bob", "--qos", "degrade",
                    "--method", "tile-routed:rle", "--fault-plan", plan_path)
    j_carol = _submit(spool, "--session", "carol", "--qos", "strict",
                      "--rot-y", "45")
    j_dave = _submit(spool, "--session", "dave", "--qos", "available",
                     "--fault-plan", plan_path)
    j_erin = _submit(spool, "--session", "erin", "--qos", "strict",
                     "--method", "bslc")
    # Sorts before the real "job-*" ids, so it is claimed first.
    j_bad = "bad-unknown-qos"
    with open(os.path.join(spool, "jobs", f"{j_bad}.json"), "w", encoding="utf-8") as fh:
        json.dump({"schema": JOB_SCHEMA, "job_id": j_bad, "session": "mallory",
                   "qos": "platinum", "deltas": {}, "fault_plan": None,
                   "deadline_s": None}, fh)
    _cli(
        "serve", "--spool", spool,
        "--dataset", BASE["dataset"], "--method", BASE["method"],
        "--ranks", str(BASE["num_ranks"]),
        "--image-size", str(BASE["image_size"]), "--machine", BASE["machine"],
        "--max-workers", "3", "--max-jobs", "5", "--idle-timeout", "60",
    )

    print("serve-smoke: checking artifacts")
    one_alice = SortLastSystem(
        RunConfig(**{**BASE, "method": "binary-swap:rle"})
    ).run()
    one_bob = SortLastSystem(
        RunConfig(**{**BASE, "method": "tile-routed:rle"})
    ).run(fault_plan=plan, recovery="degrade")
    one_carol = SortLastSystem(RunConfig(**BASE, rot_y=45.0)).run()
    one_dave = SortLastSystem(RunConfig(**BASE)).run()
    one_erin = SortLastSystem(RunConfig(**{**BASE, "method": "bslc"})).run()
    _verify(spool, j_alice, one_alice)
    _verify(spool, j_bob, one_bob, outcome="degraded")
    _verify(spool, j_carol, one_carol)
    _verify(spool, j_dave, one_dave, outcome="resumed")
    _verify(spool, j_erin, one_erin)
    stages = [e for e in read_events(spool, j_erin) if e["kind"] == "stage"]
    _check(f"{j_erin}: stage events address index parts",
           bool(stages) and all("index" in e["part"] for e in stages))
    bad = load_result(spool, j_bad)
    _check(f"{j_bad}: refused with a result document",
           bad is not None and not bad["ok"] and bad["error"] == "ConfigurationError",
           str(bad))
    print("serve-smoke: PASS")


if __name__ == "__main__":
    main()
