"""Serving chaos: kill-restart crash survival and deterministic overload.

The contract under test (ISSUE: overload control & crash-survivable
serving):

* **Kill-restart.**  A serving process SIGKILLed — while jobs are
  queued, and while a checkpointing job is mid-render on the
  multiprocessing substrate — leaves orphaned claims in ``work/`` whose
  leases stop heartbeating.  A restarted server reclaims them
  (attempt-numbered atomic renames), every job still ends with exactly
  one ``repro.serve-result/1`` document, and the final images are
  bit-identical to an undisturbed run of the same configs.  The
  reclaimed ``lossless`` job resumes whole-run from its on-disk
  checkpoint store rather than discarding all progress.
* **Overload.**  Arrivals at several times pool capacity under each
  shedding policy (``block`` / ``reject`` / ``shed-lowest-qos``) never
  deadlock and never leave a client hanging: sheds and rejects are
  exact, typed, and logged as structured ``repro.serve-event/4``
  documents, and every *accepted* job's final image is bit-identical to
  a one-shot run.

The whole suite runs under the same SIGALRM hang watchdog as
``tests/test_chaos.py`` (pytest-timeout optional), and the killed
server runs in its own session/process group so orphaned mp workers die
with it.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.errors import JobRejectedError, JobShedError
from repro.pipeline.config import RunConfig
from repro.pipeline.system import SortLastSystem
from repro.serving import (
    SERVE_CONTROL_SCHEMA,
    RenderService,
    load_result,
    read_events,
    serve,
    submit_job,
    wait_for_result,
)

pytestmark = pytest.mark.serve_chaos

_WATCHDOG_SECONDS = 300
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.fixture(autouse=True)
def _hang_watchdog():
    """Hard per-test hang guard, independent of pytest-timeout.

    POSIX interval timers are not inherited across fork, so the alarm
    cannot misfire inside mp worker processes.
    """

    def _fire(signum, frame):  # pragma: no cover - only on a real hang
        raise RuntimeError(
            f"serve-chaos test exceeded the {_WATCHDOG_SECONDS}s hang watchdog"
        )

    previous = signal.signal(signal.SIGALRM, _fire)
    signal.alarm(_WATCHDOG_SECONDS)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _cfg(**kw) -> RunConfig:
    base = dict(
        dataset="sphere",
        image_size=64,
        num_ranks=4,
        method="bsbrc",
        volume_shape=(32, 32, 16),
    )
    base.update(kw)
    return RunConfig(**base)


# A standalone server process the test can SIGKILL without mercy.  It
# runs in its own session (process group) so forked mp workers die with
# it, exactly like a machine-level crash.
_SERVER_SCRIPT = """\
import sys
from repro.pipeline.config import RunConfig
from repro.serving import serve

spool, backend = sys.argv[1], sys.argv[2]
cfg = RunConfig(
    dataset="sphere", image_size=64, num_ranks=4, method="bsbrc",
    volume_shape=(32, 32, 16), backend=backend,
)
serve(spool, cfg, max_workers=1, lease_s=1.0, poll=0.01)
"""


def _start_server(tmp_path, spool: str, backend: str) -> subprocess.Popen:
    script = tmp_path / "server.py"
    script.write_text(_SERVER_SCRIPT)
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, str(script), spool, backend],
        env=env,
        start_new_session=True,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def _kill_server(proc: subprocess.Popen) -> None:
    """SIGKILL the server's whole process group (mp workers included)."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:  # pragma: no cover - already gone
        pass
    proc.wait(timeout=30)


def _wait_for(predicate, timeout: float, what: str) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.01)
    raise AssertionError(f"timed out waiting for {what}")


class TestKillRestart:
    def test_kill_while_queued_then_reclaim(self, tmp_path):
        """Kill the server with one job rendering and one queued; a
        restarted server reclaims the expired leases and finishes both,
        bit-identical to undisturbed runs, exactly one result each."""
        spool = str(tmp_path / "spool")
        # Claimed in name order: the big job renders first, the small
        # one sits queued behind the single worker.
        submit_job(spool, job_id="a-big", deltas={"image_size": 96, "rot_y": 30.0})
        submit_job(spool, job_id="b-small", deltas={"rot_y": 60.0})
        server = _start_server(tmp_path, spool, "sim")
        try:
            work = os.path.join(spool, "work")
            _wait_for(
                lambda: os.path.exists(os.path.join(work, "a-big.a1.json"))
                and os.path.exists(
                    os.path.join(spool, "out", "a-big.events.jsonl")
                ),
                60.0,
                "the server to claim and start the first job",
            )
        finally:
            _kill_server(server)
        assert load_result(spool, "a-big") is None, "kill should land mid-render"
        # Orphaned claims with dead leases are all that's left.
        orphans = [n for n in os.listdir(work) if n.endswith(".a1.json")]
        assert "a-big.a1.json" in orphans
        time.sleep(1.3)  # let the 1s leases expire

        served = serve(
            spool, _cfg(), max_workers=2, lease_s=1.0, idle_timeout=3.0, poll=0.01
        )
        assert served >= 1
        doc_a = wait_for_result(spool, "a-big", timeout=10.0)
        doc_b = wait_for_result(spool, "b-small", timeout=10.0)
        assert doc_a["ok"] and doc_b["ok"]
        assert doc_a["attempt"] == 2, "the mid-render orphan was reclaimed"
        # Exactly one result document per job, and work/ fully retired.
        out_names = os.listdir(os.path.join(spool, "out"))
        assert out_names.count("a-big.result.json") == 1
        assert out_names.count("b-small.result.json") == 1
        assert [n for n in os.listdir(work) if n.endswith(".json")] == []

        for job_id, deltas in (
            ("a-big", {"image_size": 96, "rot_y": 30.0}),
            ("b-small", {"rot_y": 60.0}),
        ):
            one_shot = SortLastSystem(_cfg(**deltas)).run(recovery="degrade")
            with np.load(os.path.join(spool, "out", f"{job_id}.final.npz")) as npz:
                assert np.array_equal(npz["intensity"], one_shot.final_image.intensity)
                assert np.array_equal(npz["opacity"], one_shot.final_image.opacity)
        # The orphan's torn event log (if any) replays without a crash.
        read_events(spool, "a-big")

    def test_kill_mid_render_on_mp_resumes_from_checkpoints(self, tmp_path):
        """SIGKILL a multiprocessing server mid-render of a lossless
        job; the restarted server reclaims the lease and resumes the
        whole run from the job's on-disk checkpoint store."""
        spool = str(tmp_path / "spool")
        submit_job(
            spool,
            job_id="ckpt-job",
            qos="lossless",
            deltas={"image_size": 96, "rot_y": 45.0},
        )
        ckpt_dir = os.path.join(spool, "work", "ckpt-job.ckpt")
        server = _start_server(tmp_path, spool, "mp")
        try:
            _wait_for(
                lambda: os.path.isdir(ckpt_dir)
                and any(n.endswith(".pkl") for n in os.listdir(ckpt_dir)),
                120.0,
                "the first on-disk checkpoint of the mp render",
            )
        finally:
            _kill_server(server)
        killed_mid_render = load_result(spool, "ckpt-job") is None
        time.sleep(1.3)

        serve(
            spool,
            _cfg(backend="mp"),
            max_workers=1,
            lease_s=1.0,
            idle_timeout=3.0,
            poll=0.01,
        )
        doc = wait_for_result(spool, "ckpt-job", timeout=10.0)
        assert doc["ok"]
        if killed_mid_render:
            assert doc["attempt"] == 2, "the expired lease was reclaimed"
        assert doc["backend"] == "mp"
        # Whole-run lockstep resume is bit-exact: identical to a clean
        # one-shot render of the same config (sim/mp parity is a repo
        # invariant, so the sim reference suffices and is faster).
        one_shot = SortLastSystem(_cfg(image_size=96, rot_y=45.0)).run()
        with np.load(doc["image"]) as npz:
            assert np.array_equal(npz["intensity"], one_shot.final_image.intensity)
            assert np.array_equal(npz["opacity"], one_shot.final_image.opacity)
        # Retired claim: no work files, no leases, checkpoints cleaned.
        leftovers = [
            n
            for n in os.listdir(os.path.join(spool, "work"))
            if n.endswith(".json") or n == "ckpt-job.ckpt"
        ]
        assert leftovers == []

    def test_lease_exhaustion_buries_the_job(self, tmp_path):
        """A claim whose lease keeps expiring is buried with a typed
        failure document after max_attempts, not retried forever."""
        spool = str(tmp_path / "spool")
        submit_job(spool, job_id="doomed", deltas={"rot_y": 5.0})
        os.makedirs(os.path.join(spool, "work"), exist_ok=True)
        # Forge an orphan already at the attempt ceiling with a long-
        # dead lease (no lease file; the work file's mtime is ancient).
        src = os.path.join(spool, "jobs", "doomed.json")
        dst = os.path.join(spool, "work", "doomed.a3.json")
        os.replace(src, dst)
        os.utime(dst, (time.time() - 3600, time.time() - 3600))
        serve(spool, _cfg(), max_workers=1, lease_s=1.0, max_attempts=3,
              idle_timeout=2.0, poll=0.01)
        doc = load_result(spool, "doomed")
        assert doc is not None and not doc["ok"]
        assert doc["error"] == "LeaseReclaimExhausted"
        assert doc["attempt"] == 3


class TestOverloadMatrix:
    """Arrivals at 4x pool capacity under every policy: no deadlock, no
    hung client, exact shedding, accepted finals bit-identical."""

    N_ARRIVALS = 8  # 4x the (max_workers=1, queue_limit=1) capacity of 2

    def _blocked_service(self, **kw):
        service = RenderService(_cfg(), max_workers=1, **kw)
        gate = threading.Event()
        started = threading.Event()

        def _block():
            started.set()
            gate.wait(120)

        service.pool.submit(_block)
        assert started.wait(10)
        return service, gate

    def _assert_bit_identical(self, ticket):
        result = ticket.result(timeout=1)
        one_shot = SortLastSystem(
            _cfg(rot_y=result.config.rot_y)
        ).run(recovery="degrade")
        assert np.array_equal(
            result.final_image.intensity, one_shot.final_image.intensity
        )

    def test_block_policy_completes_everything(self):
        service = RenderService(
            _cfg(), max_workers=1, queue_limit=1, shed_policy="block"
        )
        tickets = []
        with service:
            # Sequential submits back-pressure against the full queue;
            # finishing workers free slots, so this always terminates.
            for i in range(self.N_ARRIVALS):
                tickets.append(service.submit("s", rot_y=float(i * 10)))
            for ticket in tickets:
                ticket.result(timeout=240)
        assert service.shed_jobs == 0 and service.rejected_jobs == 0
        self._assert_bit_identical(tickets[0])
        self._assert_bit_identical(tickets[-1])

    def test_reject_policy_sheds_exactly_the_overflow(self):
        service, gate = self._blocked_service(queue_limit=2, shed_policy="reject")
        try:
            accepted, rejected = [], 0
            for i in range(self.N_ARRIVALS):
                try:
                    accepted.append(service.submit("s", rot_y=float(i * 10)))
                except JobRejectedError:
                    rejected += 1
            # Exact arithmetic: the queue holds 2, everything else is
            # turned away at the door while the worker is wedged.
            assert len(accepted) == 2 and rejected == self.N_ARRIVALS - 2
            assert service.rejected_jobs == rejected
            assert (
                sum(1 for e in service.events if e["kind"] == "rejected") == rejected
            )
            gate.set()
            for ticket in accepted:
                ticket.result(timeout=240)
                self._assert_bit_identical(ticket)
        finally:
            gate.set()
            service.close()

    def test_shed_lowest_qos_protects_the_vip(self):
        service, gate = self._blocked_service(
            queue_limit=2, shed_policy="shed-lowest-qos"
        )
        try:
            service.open_session("cheap", qos="degrade")
            service.open_session("vip", qos="lossless")
            cheap = [
                service.submit("cheap", rot_y=float(i * 10)) for i in range(2)
            ]
            vips, vip_rejected = [], 0
            for i in range(self.N_ARRIVALS - 2):
                try:
                    vips.append(service.submit("vip", rot_y=float(100 + i * 10)))
                except JobRejectedError:
                    vip_rejected += 1
            # Both cheap jobs were evicted for the first two VIPs; once
            # only VIPs queue, further VIP arrivals outrank nobody.
            assert len(vips) == 2 and vip_rejected == self.N_ARRIVALS - 4
            assert service.shed_jobs == 2
            for ticket in cheap:
                with pytest.raises(JobShedError):
                    ticket.result(timeout=10)  # typed, never a hang
            shed_events = [e for e in service.events if e["kind"] == "shed"]
            assert {e["job_id"] for e in shed_events} == {
                t.job_id for t in cheap
            }
            assert all(
                e["schema"] == SERVE_CONTROL_SCHEMA for e in service.events
            )
            gate.set()
            for ticket in vips:
                ticket.result(timeout=240)
                self._assert_bit_identical(ticket)
        finally:
            gate.set()
            service.close()

    def test_overloaded_spool_with_deadlines_settles_every_job(self, tmp_path):
        """End-to-end pressure valve: more spool jobs than capacity,
        tight deadlines, reject policy — every job still ends with
        exactly one typed result document; nobody waits forever."""
        spool = str(tmp_path / "spool")
        job_ids = [
            submit_job(
                spool,
                job_id=f"burst-{i}",
                deltas={"rot_y": float(i * 7)},
                deadline_s=None if i % 2 == 0 else 120.0,
            )
            for i in range(6)
        ]
        serve(
            spool,
            _cfg(),
            max_workers=2,
            queue_limit=4,
            shed_policy="reject",
            max_jobs=6,
            idle_timeout=15.0,
            poll=0.01,
        )
        statuses = {}
        for job_id in job_ids:
            doc = wait_for_result(spool, job_id, timeout=10.0)
            statuses[job_id] = doc["ok"] or doc["error"]
        # Every job settled: rendered, or typed-rejected; no pending.
        assert all(v is True or isinstance(v, str) for v in statuses.values())
        assert json.dumps(statuses)  # structured & serializable
