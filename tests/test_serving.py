"""The render service: concurrent sessions, QoS, progressive delivery.

The acceptance demonstration for the serving layer: at least three
concurrent sessions multiplex over one bounded worker pool, each
streaming monotone progressive frames whose finals are bit-identical to
one-shot runs; per-session QoS maps onto the recovery lattice (a
``degrade``-QoS session's crashed job comes back fast as a *flagged*
partial frame, ``strict`` surfaces the error, ``lossless`` recovers
bit-identically); and the file-spool front end round-trips jobs,
events, and results through nothing but a directory.
"""

import contextlib
import gc
import json
import os
import pathlib
import threading
import time

import numpy as np
import pytest

from repro.cluster.faults import FAULT_PLAN_SCHEMA, FaultPlan, FaultRule
from repro.cluster.progress import SERVE_EVENT_SCHEMA, ProgressFeed, serve_event_from_dict
from repro.errors import (
    ConfigurationError,
    DeadlineExceededError,
    JobCancelledError,
    JobRejectedError,
    JobShedError,
    RankFailedError,
)
from repro.pipeline.config import RunConfig
from repro.pipeline.session import RenderJob
from repro.pipeline.system import SortLastSystem
from repro.serving import (
    JOB_SCHEMA,
    JobTicket,
    ProgressiveFrame,
    QOS_POLICIES,
    RenderService,
    SERVE_CONTROL_SCHEMA,
    SHED_POLICIES,
    WorkerPool,
    read_events,
    serve,
    submit_job,
    wait_for_result,
)


def _cfg(**kw):
    base = dict(
        dataset="sphere",
        image_size=64,
        num_ranks=4,
        method="bsbrc",
        volume_shape=(32, 32, 16),
    )
    base.update(kw)
    return RunConfig(**base)


def _crash_plan():
    return FaultPlan(rules=(FaultRule(kind="crash", rank=1, stage=1),), seed=3)


def _render_crash_plan():
    # The tile-routed engine has no stage boundaries, so crash it in the
    # render phase (fires for every method).
    return FaultPlan(rules=(FaultRule(kind="crash", rank=1, phase="render"),), seed=5)


def _assert_monotone(events):
    covs = [e.coverage for e in events]
    assert all(a <= b for a, b in zip(covs, covs[1:]))


class TestConcurrentSessions:
    def test_three_sessions_share_one_bounded_pool(self):
        """The flagship path: 3 sessions, mixed methods (tile-routed:rle
        included), one crash-fault job under degrade QoS — all
        multiplexed over one pool; every stream monotone; every final
        frame bit-identical to its one-shot run."""
        base = _cfg()
        with RenderService(base, max_workers=3) as service:
            service.open_session("alice", qos="lossless")
            service.open_session("bob", qos="degrade")
            service.open_session("carol", qos="strict")
            t_alice = service.submit("alice", method="binary-swap:rle")
            t_bob = service.submit(
                "bob", RenderJob(deltas={"method": "tile-routed:rle"},
                                 fault_plan=_render_crash_plan())
            )
            t_carol = service.submit("carol", rot_y=45.0)
            r_alice = t_alice.result(timeout=120)
            r_bob = t_bob.result(timeout=120)
            r_carol = t_carol.result(timeout=120)
            assert service.pool.jobs_submitted == 3
            assert service.pool.peak_active <= 3

        # Progressive streams: monotone coverage, flagged final.
        for ticket in (t_alice, t_bob, t_carol):
            assert ticket.feed is not None and ticket.feed.closed
            _assert_monotone(ticket.feed.events)
            assert ticket.feed.events[-1].kind == "final"
            assert ticket.feed.events[-1].coverage == 1.0

        # Degrade QoS: the crashed job came back flagged, not raised.
        assert r_bob.degraded
        assert t_bob.feed.events[-1].degraded
        assert t_bob.feed.events[-1].outcome == "degraded"

        # Finals bit-identical to one-shot runs of the same configs.
        one_alice = SortLastSystem(_cfg(method="binary-swap:rle")).run()
        one_carol = SortLastSystem(_cfg(rot_y=45.0)).run()
        one_bob = SortLastSystem(_cfg(method="tile-routed:rle")).run(
            fault_plan=_render_crash_plan(), recovery="degrade"
        )
        assert np.array_equal(
            r_alice.final_image.intensity, one_alice.final_image.intensity
        )
        assert np.array_equal(
            r_carol.final_image.intensity, one_carol.final_image.intensity
        )
        assert np.array_equal(
            r_bob.final_image.intensity, one_bob.final_image.intensity
        )

    def test_pool_bound_is_respected(self):
        with RenderService(_cfg(), max_workers=1) as service:
            tickets = [service.submit(f"s{i}") for i in range(3)]
            for ticket in tickets:
                ticket.result(timeout=120)
                assert ticket.state == "done"
            assert service.pool.peak_active == 1
            assert service.pool.jobs_submitted == 3

    def test_jobs_within_a_session_run_in_order(self):
        with RenderService(_cfg(), max_workers=2) as service:
            first = service.submit("one", rot_y=10.0)
            second = service.submit("one", rot_y=20.0)
            r1 = first.result(timeout=120)
            r2 = second.result(timeout=120)
            assert r1.config.rot_y == 10.0
            assert r2.config.rot_y == 20.0

    def test_per_job_perf_scoping(self):
        """Concurrent jobs account into private registries — a job's
        report reflects its own run, not an interleaving."""
        with RenderService(_cfg(), max_workers=2) as service:
            small = service.submit("a", image_size=32)
            large = service.submit("b", image_size=96)
            small.result(timeout=120)
            large.result(timeout=120)
        c_small = small.perf_report["counters"]
        c_large = large.perf_report["counters"]
        assert c_small and c_large
        # The larger frame casts strictly more rays than the smaller;
        # interleaved global counters could never show that cleanly.
        assert c_large["raycast.rays"] > c_small["raycast.rays"]


class TestQoS:
    def test_qos_maps_onto_recovery_lattice(self):
        assert QOS_POLICIES["degrade"] == "degrade"
        assert QOS_POLICIES["strict"] == "abort"
        assert QOS_POLICIES["lossless"] == "checkpoint-resume"

    def test_strict_session_surfaces_the_error(self):
        with RenderService(_cfg(), max_workers=1) as service:
            service.open_session("s", qos="strict")
            ticket = service.submit("s", RenderJob(fault_plan=_crash_plan()))
            with pytest.raises(RankFailedError):
                ticket.result(timeout=120)
            assert ticket.state == "failed"

    def test_lossless_session_recovers_bit_identically(self):
        with RenderService(_cfg(), max_workers=1) as service:
            service.open_session("l", qos="lossless")
            hurt = service.submit("l", RenderJob(fault_plan=_crash_plan()))
            clean = service.submit("l")
            r_hurt = hurt.result(timeout=120)
            r_clean = clean.result(timeout=120)
        assert r_hurt.recovered and not r_hurt.degraded
        assert np.array_equal(
            r_hurt.final_image.intensity, r_clean.final_image.intensity
        )

    def test_job_recovery_overrides_session_qos(self):
        with RenderService(_cfg(), max_workers=1) as service:
            service.open_session("s", qos="strict")
            ticket = service.submit(
                "s", RenderJob(fault_plan=_crash_plan(), recovery="degrade")
            )
            result = ticket.result(timeout=120)
        assert result.degraded

    def test_unknown_qos_rejected(self):
        with RenderService(_cfg()) as service:
            with pytest.raises(ConfigurationError, match="QoS"):
                service.open_session("x", qos="platinum")

    def test_qos_conflict_on_reopen_rejected(self):
        with RenderService(_cfg()) as service:
            service.open_session("x", qos="strict")
            service.open_session("x", qos="strict")  # idempotent
            with pytest.raises(ConfigurationError, match="already open"):
                service.open_session("x", qos="degrade")


class TestProgressiveFrame:
    @pytest.mark.parametrize("method", ["binary-swap:rle", "tile-routed:rle"])
    def test_replay_converges_to_the_final_image(self, method):
        with RenderService(_cfg(method=method), max_workers=1) as service:
            ticket = service.submit("viewer")
            result = ticket.result(timeout=120)
        frame = ProgressiveFrame(64, 64)
        last_cov = 0.0
        for event in ticket.feed.events:
            frame.apply(event)
            assert frame.coverage >= last_cov
            last_cov = frame.coverage
        assert frame.finalized and not frame.degraded
        assert frame.outcome == "clean"
        assert np.array_equal(frame.image.intensity, result.final_image.intensity)
        assert np.array_equal(frame.image.opacity, result.final_image.opacity)

    def test_tile_frames_are_correct_before_the_final_event(self):
        """Mid-stream, every tile-covered pixel already holds its final
        value — the progressive display never shows wrong pixels."""
        with RenderService(_cfg(method="tile-routed:rle"), max_workers=1) as service:
            ticket = service.submit("viewer")
            result = ticket.result(timeout=120)
        frame = ProgressiveFrame(64, 64)
        for event in ticket.feed.events:
            if event.kind != "tile":
                continue
            frame.apply(event)
            rect = event.part.rect
            assert np.array_equal(
                frame.image.intensity[rect.y0 : rect.y1, rect.x0 : rect.x1],
                result.final_image.intensity[rect.y0 : rect.y1, rect.x0 : rect.x1],
            )


class TestSpool:
    def test_spool_round_trip(self, tmp_path):
        spool = str(tmp_path / "spool")
        base = _cfg()
        j_tile = submit_job(
            spool, session="u1", qos="degrade",
            deltas={"method": "tile-routed:rle"},
        )
        j_rot = submit_job(spool, session="u2", qos="lossless",
                           deltas={"rot_y": 10.0})
        j_crash = submit_job(
            spool, session="u1", qos="degrade",
            fault_plan=_crash_plan(),
        )
        served = serve(spool, base, max_workers=3, max_jobs=3, idle_timeout=10.0)
        assert served == 3

        doc_tile = wait_for_result(spool, j_tile, timeout=5.0)
        doc_rot = wait_for_result(spool, j_rot, timeout=5.0)
        doc_crash = wait_for_result(spool, j_crash, timeout=5.0)
        assert doc_tile["ok"] and doc_rot["ok"] and doc_crash["ok"]
        assert doc_tile["outcome"] == "clean"
        assert doc_crash["outcome"] == "degraded" and doc_crash["degraded"]

        # Streamed documents: monotone coverage, final persisted image
        # bit-identical to the one-shot run.
        events = read_events(spool, j_tile)
        covs = [e["coverage"] for e in events]
        assert events and all(a <= b for a, b in zip(covs, covs[1:]))
        assert events[-1]["kind"] == "final"
        with np.load(doc_tile["image"]) as npz:
            one_shot = SortLastSystem(_cfg(method="tile-routed:rle")).run()
            assert np.array_equal(npz["intensity"], one_shot.final_image.intensity)
            assert np.array_equal(npz["opacity"], one_shot.final_image.opacity)

    def test_spool_reports_failures(self, tmp_path):
        spool = str(tmp_path / "spool")
        job_id = submit_job(
            spool, session="s", qos="strict", fault_plan=_crash_plan()
        )
        serve(spool, _cfg(), max_workers=1, max_jobs=1, idle_timeout=10.0)
        doc = wait_for_result(spool, job_id, timeout=5.0)
        assert not doc["ok"]
        assert doc["error"] == "RankFailedError"

    def test_volume_shape_from_json_renders(self, tmp_path):
        """Deltas cross the spool as JSON, so a shape arrives as a list."""
        spool = str(tmp_path / "spool")
        good = submit_job(spool, deltas={"volume_shape": [16, 16, 16]})
        bad = submit_job(spool, deltas={"volume_shape": [0, 4, 4]})
        serve(spool, _cfg(), max_workers=1, max_jobs=2, idle_timeout=10.0)
        doc = wait_for_result(spool, good, timeout=5.0)
        assert doc["ok"], doc
        with np.load(doc["image"]) as npz:
            one_shot = SortLastSystem(_cfg(volume_shape=(16, 16, 16))).run()
            assert np.array_equal(npz["intensity"], one_shot.final_image.intensity)
        doc = wait_for_result(spool, bad, timeout=5.0)
        assert not doc["ok"] and doc["error"] == "ConfigurationError"
        assert "volume_shape" in doc["detail"]

    def test_submit_rejects_unknown_qos(self, tmp_path):
        with pytest.raises(ConfigurationError, match="QoS"):
            submit_job(str(tmp_path), qos="platinum")

    #: One bad job file each: (field overrides, or a whole non-object
    #: document) and a phrase of the detail it must be refused with.
    BAD_JOBS = {
        "qos-clash": ({"session": "s", "qos": "strict"}, "already open with QoS"),
        "unknown-qos": ({"qos": "platinum"}, "unknown QoS class"),
        "wrong-schema": ({"schema": "repro.serve-job/0"}, "unsupported job schema"),
        "deadline-not-a-number": ({"deadline_s": "soon"}, "deadline_s must be a number"),
        "malformed-fault-plan": (
            {"fault_plan": {"schema": FAULT_PLAN_SCHEMA, "rules": [{"rank": 1}]}},
            "malformed fault_plan",
        ),
        "not-an-object": ([1, 2, 3], "not an object"),
        "deltas-not-an-object": ({"deltas": ["rot_y", 5]}, "deltas must be an object"),
    }

    @pytest.mark.parametrize("case", sorted(BAD_JOBS))
    def test_bad_job_is_answered_and_serving_goes_on(self, tmp_path, case):
        """A job that cannot run gets an ``ok: false`` result; the server
        keeps serving the jobs queued behind it."""
        spool = str(tmp_path / "spool")
        bad, detail = self.BAD_JOBS[case]
        # Claims go in name order: a-first, then b-bad, then c-good.
        submit_job(spool, session="s", qos="degrade", job_id="a-first")
        submit_job(spool, session="other", job_id="c-good")
        if isinstance(bad, dict):
            bad = {"schema": JOB_SCHEMA, "job_id": "b-bad", "session": "bad",
                   "qos": "degrade", "deltas": {}, "fault_plan": None,
                   "deadline_s": None, **bad}
        pathlib.Path(spool, "jobs", "b-bad.json").write_text(json.dumps(bad))

        served = serve(spool, _cfg(), max_workers=1, max_jobs=2, idle_timeout=10.0)
        assert served == 2
        doc = wait_for_result(spool, "b-bad", timeout=5.0)
        assert not doc["ok"] and doc["error"] == "ConfigurationError"
        assert detail in doc["detail"]
        assert wait_for_result(spool, "a-first", timeout=5.0)["ok"]
        assert wait_for_result(spool, "c-good", timeout=5.0)["ok"]
        assert not os.listdir(os.path.join(spool, "work"))  # bad claim retired


def _doorbell(spool):
    return os.path.join(spool, "doorbell")


def _wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition not reached in time"
        time.sleep(0.005)


@contextlib.contextmanager
def _idle_server(spool, **serve_kw):
    """A ``serve`` loop on a thread, handed over once it idles on its
    doorbell (the bell is hung after everything else is set up, and
    the loop's first look at the empty spool takes microseconds)."""
    stop = threading.Event()
    served = []
    thread = threading.Thread(
        target=lambda: served.append(
            serve(spool, _cfg(), stop_event=stop, **serve_kw)
        )
    )
    thread.start()
    try:
        _wait_until(pathlib.Path(_doorbell(spool)).is_fifo)
        time.sleep(0.2)
        yield served
    finally:
        stop.set()
        thread.join(timeout=60.0)
        assert not thread.is_alive()


def _claimed(spool, job_id):
    return not os.path.exists(os.path.join(spool, "jobs", f"{job_id}.json"))


needs_fifo = pytest.mark.skipif(
    not hasattr(os, "mkfifo"), reason="platform has no FIFOs"
)


@needs_fifo
class TestDoorbell:
    def test_ring_wakes_an_idle_server_long_before_its_poll(self, tmp_path):
        spool = str(tmp_path / "spool")
        with _idle_server(spool, poll=5.0, max_jobs=1) as served:
            t0 = time.monotonic()
            job_id = submit_job(spool)
            _wait_until(lambda: _claimed(spool, job_id), timeout=4.0)
            assert time.monotonic() - t0 < 1.0  # the bell, not the 5 s timeout
            assert wait_for_result(spool, job_id, timeout=60.0)["ok"]
        assert served == [1]

    def test_unlinked_fifo_falls_back_to_the_poll_period(self, tmp_path):
        spool = str(tmp_path / "spool")
        with _idle_server(spool, poll=0.3, max_jobs=1):
            os.unlink(_doorbell(spool))
            t0 = time.monotonic()
            job_id = submit_job(spool)  # rings nothing: the name is gone
            _wait_until(lambda: _claimed(spool, job_id), timeout=5.0)
            assert time.monotonic() - t0 < 2.0
            assert wait_for_result(spool, job_id, timeout=60.0)["ok"]

    @pytest.mark.parametrize("stale_fifo", [False, True])
    def test_submit_with_nobody_listening(self, tmp_path, stale_fifo):
        """No server: the ring is dropped without raising or blocking,
        and a server started later finds the job file.  A FIFO left by
        a SIGKILLed server is reused; a clean exit unlinks it."""
        spool = str(tmp_path / "spool")
        if stale_fifo:
            os.makedirs(spool)
            os.mkfifo(_doorbell(spool))
        t0 = time.monotonic()
        first = submit_job(spool)
        assert time.monotonic() - t0 < 1.0
        with _idle_server(spool, poll=5.0, max_jobs=2) as served:
            assert wait_for_result(spool, first, timeout=60.0)["ok"]
            t0 = time.monotonic()
            second = submit_job(spool)
            _wait_until(lambda: _claimed(spool, second), timeout=4.0)
            assert time.monotonic() - t0 < 1.0  # the (reused) bell works
            assert wait_for_result(spool, second, timeout=60.0)["ok"]
        assert served == [2]
        assert not os.path.lexists(_doorbell(spool))

    def test_two_servers_one_result_per_job(self, tmp_path):
        spool = str(tmp_path / "spool")
        with _idle_server(spool, max_workers=1, idle_timeout=1.0) as served_a:
            with _idle_server(spool, max_workers=1, idle_timeout=1.0) as served_b:
                jobs = [submit_job(spool, deltas={"rot_y": 5.0 * i}) for i in range(4)]
                docs = [wait_for_result(spool, j, timeout=60.0) for j in jobs]
        assert all(doc["ok"] and doc["attempt"] == 1 for doc in docs)
        # Both woke on every ring; each job was launched exactly once.
        assert served_a[0] + served_b[0] == len(jobs)
        out = os.listdir(os.path.join(spool, "out"))
        assert sorted(n for n in out if n.endswith(".result.json")) == sorted(
            f"{j}.result.json" for j in jobs
        )
        assert os.listdir(os.path.join(spool, "work")) == []

    def test_survivor_rehangs_the_bell_a_clean_exit_unlinked(self, tmp_path):
        """Two servers share one FIFO; the first to exit cleanly unlinks
        it.  The survivor's next wait hangs a new one, so later rings
        still wake it instead of each waiting out a poll period."""
        from repro.serving.spool import _Doorbell, _ring_doorbell

        spool = str(tmp_path)
        first, survivor = _Doorbell(spool), _Doorbell(spool)
        try:
            first.close()
            assert not os.path.lexists(_doorbell(spool))
            survivor.wait(0)
            for _ in range(2):
                _ring_doorbell(spool)
                t0 = time.monotonic()
                survivor.wait(5.0)
                assert time.monotonic() - t0 < 1.0
        finally:
            survivor.close()
        assert not os.path.lexists(_doorbell(spool))

    @pytest.mark.parametrize("squatter", [False, True])
    def test_wait_blocks_until_rung_and_never_spins(self, tmp_path, squatter):
        """With no submitter connected the wait sleeps out its timeout
        (no hang-up busy loop); a regular file squatting on the name is
        not mistaken for a bell and degrades to the same timeout."""
        from repro.serving.spool import _Doorbell, _ring_doorbell

        spool = str(tmp_path)
        if squatter:
            with open(_doorbell(spool), "w", encoding="utf-8"):
                pass
        bell = _Doorbell(spool)
        try:
            for _ in range(2):
                t0 = time.monotonic()
                bell.wait(0.2)
                assert time.monotonic() - t0 >= 0.19
            if not squatter:
                _ring_doorbell(spool)
                t0 = time.monotonic()
                bell.wait(5.0)
                assert time.monotonic() - t0 < 1.0
                t0 = time.monotonic()
                bell.wait(0.2)  # the ring was drained: blocks again
                assert time.monotonic() - t0 >= 0.19
        finally:
            bell.close()
        assert os.path.lexists(_doorbell(spool)) == squatter  # not ours: left alone


class TestServerMemory:
    def test_finished_jobs_are_retired_while_serving(self, tmp_path):
        """The serve loop drops a job's ticket, feed and frames once its
        writer is done — not at exit (it used to keep ~1.4 MB a job)."""
        spool = str(tmp_path / "spool")

        def live_tickets():
            gc.collect()
            return sum(isinstance(obj, JobTicket) for obj in gc.get_objects())

        before = live_tickets()
        with _idle_server(spool, poll=0.05) as served:
            for i in range(4):
                job_id = submit_job(spool, deltas={"rot_y": 5.0 * i})
                assert wait_for_result(spool, job_id, timeout=60.0)["ok"]
            _wait_until(lambda: live_tickets() == before)
        assert served == [4]


def _blocked_service(**service_kw):
    """A service whose single pool worker is parked on a gate, so every
    submitted job stays deterministically queued until the gate opens."""
    service = RenderService(_cfg(), max_workers=1, **service_kw)
    gate = threading.Event()
    started = threading.Event()

    def _block():
        started.set()
        gate.wait(60)

    service.pool.submit(_block)
    assert started.wait(10)
    return service, gate


class TestAdmission:
    def test_policies_are_a_lattice(self):
        assert SHED_POLICIES == ("block", "reject", "shed-lowest-qos")
        with pytest.raises(ConfigurationError, match="shed policy"):
            RenderService(_cfg(), shed_policy="lifo")
        with pytest.raises(ConfigurationError, match="queue_limit"):
            RenderService(_cfg(), queue_limit=0)

    def test_reject_turns_away_the_overflow_arrival(self):
        service, gate = _blocked_service(queue_limit=2, shed_policy="reject")
        try:
            kept = [service.submit("s", rot_y=float(i)) for i in range(2)]
            with pytest.raises(JobRejectedError) as exc:
                service.submit("s", rot_y=99.0)
            assert exc.value.queue_limit == 2
            assert service.rejected_jobs == 1
            kinds = [e["kind"] for e in service.events]
            assert kinds.count("rejected") == 1
            assert all(e["schema"] == SERVE_CONTROL_SCHEMA for e in service.events)
            # A control record is no pixel event: refused by its tag.
            with pytest.raises(ConfigurationError, match="serve-control/1"):
                serve_event_from_dict(service.events[0])
            gate.set()
            for ticket in kept:
                assert ticket.result(timeout=120).config is not None
        finally:
            gate.set()
            service.close()

    def test_shed_lowest_qos_evicts_a_lower_priority_job(self):
        service, gate = _blocked_service(
            queue_limit=2, shed_policy="shed-lowest-qos"
        )
        try:
            service.open_session("cheap", qos="degrade")
            service.open_session("vip", qos="lossless")
            victim_a = service.submit("cheap", rot_y=1.0)
            victim_b = service.submit("cheap", rot_y=2.0)
            vip = service.submit("vip", rot_y=3.0)
            # The newest of the lowest-QoS queued jobs was evicted, and
            # its client got a typed error instead of a hang.
            with pytest.raises(JobShedError):
                victim_b.result(timeout=10)
            assert victim_b.state == "shed"
            assert service.shed_jobs == 1
            shed_events = [e for e in service.events if e["kind"] == "shed"]
            assert len(shed_events) == 1
            assert shed_events[0]["job_id"] == victim_b.job_id
            assert shed_events[0]["shed_for"] == vip.job_id
            # An equal-priority arrival outranks nobody: rejected.
            with pytest.raises(JobRejectedError):
                service.submit("cheap", rot_y=4.0)
            gate.set()
            assert victim_a.result(timeout=120).config.rot_y == 1.0
            assert vip.result(timeout=120).config.rot_y == 3.0
        finally:
            gate.set()
            service.close()

    def test_block_backpressures_until_a_slot_frees(self):
        service, gate = _blocked_service(queue_limit=1, shed_policy="block")
        try:
            first = service.submit("s", rot_y=1.0)
            admitted = []

            def _submit_second():
                admitted.append(service.submit("s", rot_y=2.0))

            blocked = threading.Thread(target=_submit_second)
            blocked.start()
            blocked.join(timeout=0.3)
            assert blocked.is_alive(), "full queue should block the submitter"
            gate.set()  # worker frees the slot; the parked submit admits
            blocked.join(timeout=60)
            assert not blocked.is_alive()
            assert first.result(timeout=120).config.rot_y == 1.0
            assert admitted[0].result(timeout=120).config.rot_y == 2.0
            assert service.shed_jobs == service.rejected_jobs == 0
        finally:
            gate.set()
            service.close()


class TestDeadlines:
    def test_queued_past_deadline_is_dropped_before_execution(self):
        service, gate = _blocked_service()
        try:
            late = service.submit("s", deadline_s=0.05, rot_y=1.0)
            time.sleep(0.2)
            gate.set()
            with pytest.raises(DeadlineExceededError, match="in the queue"):
                late.result(timeout=30)
            assert late.state == "deadline"
            assert service.deadline_jobs == 1
            assert [e["kind"] for e in service.events] == ["deadline"]
        finally:
            gate.set()
            service.close()

    def test_running_job_aborts_at_a_progress_boundary(self):
        """An already-expired feed deadline fires at the first tile or
        stage boundary the engines emit — mid-run, typed, no hang."""
        feed = ProgressFeed()
        feed.set_deadline(time.monotonic() - 1.0, 0.001)
        with RenderService(_cfg(), max_workers=1) as service:
            ticket = service.submit(
                "s", RenderJob(progress=feed, deltas={"method": "tile-routed:rle"})
            )
            with pytest.raises(DeadlineExceededError, match="boundary"):
                ticket.result(timeout=120)
            assert ticket.state == "deadline"
            assert ticket.feed.closed

    def test_generous_deadline_does_not_interfere(self):
        with RenderService(_cfg(), max_workers=1) as service:
            ticket = service.submit("s", deadline_s=300.0)
            result = ticket.result(timeout=120)
        assert result.final_image is not None
        one_shot = SortLastSystem(_cfg()).run()
        assert np.array_equal(
            result.final_image.intensity, one_shot.final_image.intensity
        )


class TestDrain:
    def test_close_cancels_queued_jobs_and_returns_them(self):
        service, gate = _blocked_service()
        try:
            queued = [service.submit("s", rot_y=float(i)) for i in range(3)]
            gate.set()  # let the blocker finish so drain can complete
            cancelled = service.close(drain=True)
        finally:
            gate.set()
        # Every queued ticket resolved — a drained client never hangs.
        assert {t.job_id for t in cancelled} <= {t.job_id for t in queued}
        for ticket in queued:
            assert ticket.done()
            if ticket in cancelled:
                with pytest.raises(JobCancelledError):
                    ticket.result(timeout=1)
                assert ticket.state == "cancelled"
        assert any(e["kind"] == "drain" for e in service.events)

    def test_abandon_resolves_leftovers_with_a_bounded_join(self):
        service, gate = _blocked_service()
        try:
            queued = [service.submit("s", rot_y=float(i)) for i in range(2)]
            t0 = time.monotonic()
            service.close(drain=False, timeout=0.5)
            assert time.monotonic() - t0 < 30.0
            for ticket in queued:
                with pytest.raises(JobCancelledError):
                    ticket.result(timeout=1)
        finally:
            gate.set()

    def test_submit_after_close_is_refused(self):
        service = RenderService(_cfg(), max_workers=1)
        service.close()
        with pytest.raises(ConfigurationError, match="shut down"):
            service.submit("s")

    def test_blocked_submitter_wakes_on_close(self):
        service, gate = _blocked_service(queue_limit=1, shed_policy="block")
        try:
            service.submit("s", rot_y=1.0)
            outcome = []

            def _submit_blocked():
                try:
                    service.submit("s", rot_y=2.0)
                    outcome.append("admitted")
                except ConfigurationError:
                    outcome.append("refused")

            blocked = threading.Thread(target=_submit_blocked)
            blocked.start()
            time.sleep(0.2)
            gate.set()
            service.close(drain=True)
            blocked.join(timeout=30)
            assert not blocked.is_alive()
            assert outcome and outcome[0] in ("admitted", "refused")
        finally:
            gate.set()

    def test_every_cancelled_ticket_is_counted_once(self):
        """Queued tickets and the running one an abandoning close()
        leaves behind all end ``cancelled``: one count and one event
        each, and a render finishing late does not change that."""
        service = RenderService(_cfg(), max_workers=1)
        handle = service.open_session("s")
        gate, started = threading.Event(), threading.Event()

        def _stuck(job):
            started.set()
            gate.wait(60)
            raise RuntimeError("render released after close")

        handle.session.submit = _stuck
        tickets = [service.submit("s", stream=False) for _ in range(3)]
        try:
            assert started.wait(10)
            assert service.close(drain=False, timeout=0.2) == tickets[1:]
        finally:
            gate.set()
        service.pool.shutdown(wait=True)  # the released render ends late
        assert [t.state for t in tickets] == ["cancelled"] * 3
        for ticket in tickets:
            with pytest.raises(JobCancelledError):
                ticket.result(timeout=1)
        kinds = [e["kind"] for e in service.events]
        assert service.cancelled_jobs == kinds.count("cancelled") == 3


class TestTornSpoolWrites:
    def _events_path(self, spool, job_id):
        return os.path.join(spool, "out", f"{job_id}.events.jsonl")

    def test_torn_trailing_record_is_dropped(self, tmp_path):
        spool = str(tmp_path / "spool")
        job_id = submit_job(spool, deltas={"method": "tile-routed:rle"})
        serve(spool, _cfg(), max_workers=1, max_jobs=1, idle_timeout=10.0)
        intact = read_events(spool, job_id)
        assert intact and intact[-1]["kind"] == "final"
        # A server killed mid-write leaves a truncated final line.
        with open(self._events_path(spool, job_id), "a", encoding="utf-8") as fh:
            fh.write('{"schema": "repro.serve-ev')
        assert read_events(spool, job_id) == intact

    def test_torn_log_still_replays_to_a_frame(self, tmp_path):
        spool = str(tmp_path / "spool")
        job_id = submit_job(spool, deltas={"method": "tile-routed:rle"})
        serve(spool, _cfg(), max_workers=1, max_jobs=1, idle_timeout=10.0)
        path = self._events_path(spool, job_id)
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
        # Truncate mid-record: drop the final event and tear the one
        # before it in half.
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(lines[:-2])
            fh.write(lines[-2][: len(lines[-2]) // 2])
        events = read_events(spool, job_id)
        assert len(events) == len(lines) - 2
        frame = ProgressiveFrame.replay(events, 64, 64)
        assert not frame.finalized
        assert frame.events_applied == len(events)

    def test_mid_file_corruption_still_raises(self, tmp_path):
        spool = str(tmp_path / "spool")
        os.makedirs(os.path.join(spool, "out"))
        with open(self._events_path(spool, "job-x"), "w", encoding="utf-8") as fh:
            fh.write("not json\n")
            fh.write(json.dumps({"schema": SERVE_EVENT_SCHEMA}) + "\n")
        with pytest.raises(json.JSONDecodeError):
            read_events(spool, "job-x")

    def test_wait_for_result_times_out_cleanly(self, tmp_path):
        t0 = time.monotonic()
        with pytest.raises(TimeoutError, match="job-none"):
            wait_for_result(str(tmp_path), "job-none", timeout=0.3, poll=0.01)
        assert time.monotonic() - t0 < 5.0


class TestWorkerPool:
    def test_pool_requires_a_worker(self):
        with pytest.raises(ConfigurationError):
            WorkerPool(0)
