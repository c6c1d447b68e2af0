"""Recovery subsystem: checkpoints, the lockstep replay, and the lattice.

The acceptance contract:

* a seeded crash at *any* compositing stage under
  ``--recovery checkpoint-resume`` produces a final image and per-rank
  byte/message counters **bit-identical** to the fault-free run, on the
  simulator and on multiprocessing;
* every policy declares the same outcome on both backends for a render
  crash and a stage crash; ``respawn`` and ``checkpoint-resume`` are
  both lossless replays of every rank;
* ``--recovery degrade`` still yields a valid degraded image when
  resume is disabled;
* every recovery action lands as a structured event in the run
  timeline, and every fault event exactly once.

The small pieces — stores, policies, enriched ``DeadlockError``
diagnostics, transport failures that name their peer — are unit-tested
alongside.
"""

from __future__ import annotations

import os
import pickle
import queue as queue_mod
import signal

import numpy as np
import pytest

from repro.cluster.faults import FaultPlan, FaultRule
from repro.cluster.mp_backend import MPRankContext
from repro.cluster.protocol import drive
from repro.cluster.recovery import (
    RECOVERY_POLICIES,
    CheckpointSnapshot,
    DiskCheckpointStore,
    MemoryCheckpointStore,
    RecoveryPolicy,
    StageCheckpointer,
)
from repro.cluster.stats import RankStats
from repro.errors import (
    ConfigurationError,
    DeadlockError,
    RankFailedError,
    SimulationError,
)
from repro.pipeline.config import RunConfig
from repro.pipeline.phases import GATHER_STAGE
from repro.pipeline.system import SortLastSystem

pytestmark = pytest.mark.recovery

_WATCHDOG_SECONDS = 120


@pytest.fixture(autouse=True)
def _hang_watchdog():
    """Hard per-test hang guard (see test_chaos for the rationale)."""

    def _fire(signum, frame):  # pragma: no cover - only on a real hang
        raise RuntimeError(
            f"recovery test exceeded the {_WATCHDOG_SECONDS}s hang watchdog"
        )

    previous = signal.signal(signal.SIGALRM, _fire)
    signal.alarm(_WATCHDOG_SECONDS)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


#: The crash matrix: paper methods plus engine combos, covering rect
#: and index parts, RLE and raw codecs, and a multi-round radix plan.
MATRIX_METHODS = (
    ("bs", {}),
    ("bsbrc", {}),
    ("radix-k:rect-rle", {"radix": [4, 4]}),
    ("sectioned:rle", {}),
)
BACKENDS = ("sim", "mp")
NUM_RANKS = 4


def _config(method: str, options: dict, recovery: str = "checkpoint-resume") -> RunConfig:
    return RunConfig(
        dataset="engine_low",
        image_size=32,
        num_ranks=NUM_RANKS,
        method=method,
        method_options=options,
        volume_shape=(32, 32, 16),
        comm_timeout=5.0,
        recovery=recovery,
    )


def _images_equal(a, b) -> bool:
    return np.array_equal(a.intensity, b.intensity) and np.array_equal(
        a.opacity, b.opacity
    )


def _comm_fingerprint(result) -> list[tuple]:
    """Deterministic per-rank, per-stage byte/message counts (no times)."""
    rows = []
    for rs in result.compositing.stats.rank_stats:
        for k in sorted(rs.stages):
            b = rs.stages[k]
            rows.append(
                (rs.rank, k, b.bytes_sent, b.bytes_recv, b.msgs_sent, b.msgs_recv)
            )
    return rows


_BASELINES: dict[tuple, object] = {}


def _baseline(method: str, options: dict, backend: str):
    key = (method, repr(sorted(options.items())), backend)
    found = _BASELINES.get(key)
    if found is None:
        found = SortLastSystem(_config(method, dict(options))).run(backend=backend)
        _BASELINES[key] = found
    return found


def _composite_stages(result) -> list[int]:
    """Exchange-stage indices of a run (pre-scan and gather excluded)."""
    return sorted(
        k
        for k in result.compositing.stats.rank_stats[0].stages
        if 0 <= k < GATHER_STAGE
    )


# ---------------------------------------------------------------------------
# The tentpole contract: crash at every stage, recover bit-identically
# ---------------------------------------------------------------------------
class TestCheckpointResumeMatrix:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize(
        "method,options", MATRIX_METHODS, ids=[m for m, _ in MATRIX_METHODS]
    )
    def test_stage_crash_resumes_bit_identically(self, method, options, backend):
        clean = _baseline(method, options, backend)
        stages = _composite_stages(clean)
        assert stages, "matrix method must have at least one exchange stage"
        for stage in stages:
            plan = FaultPlan(
                rules=(FaultRule(kind="crash", rank=1, stage=stage),), seed=3
            )
            result = SortLastSystem(_config(method, dict(options))).run(
                backend=backend, fault_plan=plan
            )
            assert result.recovered, f"stage {stage} was not recovered"
            assert not result.degraded
            assert _images_equal(result.final_image, clean.final_image)
            assert _comm_fingerprint(result) == _comm_fingerprint(clean)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_resume_restores_a_real_checkpoint_at_p8(self, backend):
        """At P=8 a late-stage crash leaves a common checkpoint, so the
        replay genuinely restores state instead of starting over.  On mp
        the common stage depends on how far the other ranks got before
        the supervisor stopped them; whenever there is one, every rank
        restores it."""
        cfg = RunConfig(
            dataset="engine_low",
            image_size=32,
            num_ranks=8,
            method="bsbrc",
            volume_shape=(32, 32, 16),
            comm_timeout=5.0,
            recovery="checkpoint-resume",
        )
        clean = SortLastSystem(cfg).run(backend=backend)
        plan = FaultPlan(rules=(FaultRule(kind="crash", rank=1, stage=2),), seed=3)
        result = SortLastSystem(cfg).run(backend=backend, fault_plan=plan)
        assert result.recovered
        assert _images_equal(result.final_image, clean.final_image)
        assert _comm_fingerprint(result) == _comm_fingerprint(clean)
        recovery = [
            e for e in result.timeline.events if e.get("event") == "recovery"
        ]
        assert recovery and recovery[0]["action"] == "checkpoint-resume"
        resume_stage = recovery[0]["resume_stage"]
        if backend == "sim":
            assert resume_stage is not None
        restores = [
            e
            for e in result.timeline.events
            if e.get("event") == "checkpoint" and e.get("action") == "restore"
        ]
        if resume_stage is not None:
            # Every rank restored the common stage.
            assert sorted(e["rank"] for e in restores) == list(range(8))
            assert {e["stage"] for e in restores} == {resume_stage}
        else:
            assert not restores

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_degrade_still_works_when_resume_disabled(self, backend):
        plan = FaultPlan(rules=(FaultRule(kind="crash", rank=1, stage=1),), seed=3)
        result = SortLastSystem(_config("bsbrc", {}, recovery="degrade")).run(
            backend=backend, fault_plan=plan
        )
        assert result.degraded and not result.recovered
        reference = result.reference_image()
        assert np.allclose(result.final_image.intensity, reference.intensity)
        assert np.allclose(result.final_image.opacity, reference.opacity)

    def test_timeline_carries_structured_recovery_events(self):
        plan = FaultPlan(rules=(FaultRule(kind="crash", rank=1, stage=1),), seed=3)
        result = SortLastSystem(_config("bsbrc", {})).run(
            backend="sim", fault_plan=plan
        )
        events = result.timeline.events
        kinds = {e["event"] for e in events}
        assert {"injected", "detected", "recovery", "checkpoint"} <= kinds
        saves = [
            e
            for e in events
            if e["event"] == "checkpoint" and e["action"] == "save"
        ]
        assert saves  # stage snapshots were actually taken
        assert result.timeline.to_dict()["meta"]["recovered"] is True


# ---------------------------------------------------------------------------
# One recovery path on every backend
# ---------------------------------------------------------------------------
#: Where rank 1 crashes: before it sends anything, mid-composite, and
#: at the composite phase boundary (rendered, nothing sent yet).
CRASH_POINTS = {
    "render": {"phase": "render"},
    "stage1": {"stage": 1},
    "composite": {"phase": "composite"},
}

#: (method, options, crash point) rows of the matrix.  The scheduled
#: method's ids are the bare crash points; tile-routed has no exchange
#: stages, so it crashes at the two phase boundaries instead.
TILE_ROUTED = ("tile-routed:rect-rle", {"tile": 8})
MATRIX_CASES = [
    pytest.param("bsbrc", {}, "render", id="render"),
    pytest.param("bsbrc", {}, "stage1", id="stage1"),
    pytest.param(*TILE_ROUTED, "render", id="tile-routed-render"),
    pytest.param(*TILE_ROUTED, "composite", id="tile-routed-composite"),
]


def _crash_plan(where: str) -> FaultPlan:
    return FaultPlan(
        rules=(FaultRule(kind="crash", rank=1, **CRASH_POINTS[where]),), seed=3
    )


def _fault_event_counts(events) -> dict[str, int]:
    return {
        kind: sum(1 for e in events if e.get("event") == kind)
        for kind in ("injected", "detected")
    }


class TestCrossBackendRecoveryMatrix:
    """Every policy declares the same outcome on ``sim`` and ``mp``."""

    @pytest.mark.parametrize("method,options,where", MATRIX_CASES)
    @pytest.mark.parametrize("policy", RECOVERY_POLICIES)
    def test_policy_outcome_is_backend_independent(self, policy, method, options, where):
        outcomes = {}
        for backend in BACKENDS:
            try:
                result = SortLastSystem(_config(method, options, recovery=policy)).run(
                    backend=backend, fault_plan=_crash_plan(where)
                )
            except RankFailedError as err:
                assert policy == "abort", f"{backend}: {err}"
                outcomes[backend] = "aborted"
                assert _fault_event_counts(err.events)["injected"] == 1
                continue
            outcomes[backend] = result.timeline.meta["outcome"]
            assert _fault_event_counts(result.timeline.events) == {
                "injected": 1,
                "detected": 1,
            }, backend
            if policy in ("respawn", "checkpoint-resume"):
                clean = _baseline(method, options, backend)
                assert result.recovered and not result.degraded, backend
                assert _images_equal(result.final_image, clean.final_image), backend
                assert _comm_fingerprint(result) == _comm_fingerprint(clean), backend
                recovery = [
                    e for e in result.timeline.events if e.get("event") == "recovery"
                ]
                assert [e["action"] for e in recovery] == [policy], backend
            elif policy == "degrade":
                assert result.degraded and not result.recovered, backend
                assert [
                    e["failed_ranks"]
                    for e in result.timeline.events
                    if e.get("event") == "recovery"
                ] == [[1]], backend
        assert outcomes["sim"] == outcomes["mp"], outcomes
        expected = {
            "abort": "aborted",
            "degrade": "degraded",
            "respawn": "resumed",
            "checkpoint-resume": "resumed",
        }
        assert outcomes["sim"] == expected[policy]


class TestWorkerRespawn:
    """``respawn`` on mp is the lockstep replay, not an in-place restart."""

    def test_render_crash_respawns_without_checkpoints(self):
        """Plain ``respawn`` replays every rank from stage 0 — no
        checkpoint store needed."""
        clean = _baseline("bsbrc", {}, "mp")
        plan = FaultPlan(
            rules=(FaultRule(kind="crash", rank=2, phase="render"),), seed=3
        )
        result = SortLastSystem(_config("bsbrc", {}, recovery="respawn")).run(
            backend="mp", fault_plan=plan
        )
        assert result.recovered and not result.degraded
        assert _images_equal(result.final_image, clean.final_image)
        recovery = [e for e in result.timeline.events if e.get("event") == "recovery"]
        assert len(recovery) == 1
        assert recovery[0]["action"] == "respawn"
        assert recovery[0]["failed_ranks"] == [2]
        assert recovery[0]["resume_stage"] is None
        assert not [e for e in result.timeline.events if e.get("event") == "checkpoint"]

    def test_mid_compositing_crash_respawns_from_checkpoint(self):
        """``checkpoint-resume`` on mp restores the common stage on every
        rank when one exists (rank 1 saved stage 0 before crashing, but
        a slow renderer may not have), and is bit-identical either way."""
        clean = _baseline("bsbrc", {}, "mp")
        plan = FaultPlan(rules=(FaultRule(kind="crash", rank=1, stage=1),), seed=3)
        result = SortLastSystem(_config("bsbrc", {})).run(
            backend="mp", fault_plan=plan
        )
        assert result.recovered and not result.degraded
        assert _images_equal(result.final_image, clean.final_image)
        assert _comm_fingerprint(result) == _comm_fingerprint(clean)
        recovery = [e for e in result.timeline.events if e.get("event") == "recovery"]
        assert [e["action"] for e in recovery] == ["checkpoint-resume"]
        assert recovery[0]["resume_stage"] in (None, 0)
        restores = [
            e
            for e in result.timeline.events
            if e.get("event") == "checkpoint" and e.get("action") == "restore"
        ]
        expected = NUM_RANKS if recovery[0]["resume_stage"] is not None else 0
        assert len(restores) == expected


# ---------------------------------------------------------------------------
# Policy lattice
# ---------------------------------------------------------------------------
class TestRecoveryPolicy:
    def test_lattice_ordering(self):
        levels = [RecoveryPolicy(name=n).level for n in RECOVERY_POLICIES]
        assert levels == sorted(levels) and len(set(levels)) == len(levels)

    def test_capabilities_accumulate(self):
        abort = RecoveryPolicy(name="abort")
        assert not (abort.allows_degrade or abort.allows_respawn or abort.allows_resume)
        degrade = RecoveryPolicy(name="degrade")
        assert degrade.allows_degrade and not degrade.allows_respawn
        respawn = RecoveryPolicy(name="respawn")
        assert respawn.allows_degrade and respawn.allows_respawn
        assert not respawn.allows_resume
        resume = RecoveryPolicy(name="checkpoint-resume")
        assert resume.allows_degrade and resume.allows_respawn and resume.allows_resume

    def test_resolve_and_validation(self):
        assert RecoveryPolicy.resolve(None).name == "degrade"
        assert RecoveryPolicy.resolve("respawn").name == "respawn"
        already = RecoveryPolicy(name="abort")
        assert RecoveryPolicy.resolve(already) is already
        with pytest.raises(ConfigurationError):
            RecoveryPolicy(name="retry-forever")

    def test_run_config_validates_recovery_fields(self):
        with pytest.raises(ConfigurationError):
            RunConfig(recovery="nope")

    def test_abort_policy_reraises(self):
        plan = FaultPlan(rules=(FaultRule(kind="crash", rank=1, stage=0),), seed=3)
        with pytest.raises(RankFailedError):
            SortLastSystem(_config("bsbrc", {}, recovery="abort")).run(
                backend="sim", fault_plan=plan
            )


# ---------------------------------------------------------------------------
# Checkpoint stores
# ---------------------------------------------------------------------------
def _snapshot(stage: int, fill: float, producer: str = "bsbrc") -> CheckpointSnapshot:
    stats = RankStats(rank=0)
    stats.stage(stage).bytes_sent = 123
    return CheckpointSnapshot(
        stage=stage,
        intensity=np.full((4, 4), fill),
        opacity=np.full((4, 4), fill / 2.0),
        codec_state=None,
        stats=stats,
        producer=producer,
    )


class TestCheckpointStores:
    @pytest.mark.parametrize("kind", ("memory", "disk"))
    def test_save_load_latest_clear(self, kind, tmp_path):
        store = (
            MemoryCheckpointStore()
            if kind == "memory"
            else DiskCheckpointStore(str(tmp_path))
        )
        assert store.latest_stage(0) is None
        store.save(0, 0, _snapshot(0, 1.0))
        store.save(0, 1, _snapshot(1, 2.0))
        store.save(1, 0, _snapshot(0, 3.0))
        assert store.latest_stage(0) == 1
        assert store.latest_stage(1) == 0
        loaded = store.load(0, 1)
        assert loaded is not None and loaded.stage == 1
        assert np.array_equal(loaded.intensity, np.full((4, 4), 2.0))
        assert loaded.stats.stages[1].bytes_sent == 123
        assert store.load(2, 0) is None
        store.clear()
        assert store.latest_stage(0) is None and store.load(0, 1) is None

    def test_common_stage_requires_every_rank(self):
        store = MemoryCheckpointStore()
        assert store.common_stage(2) is None
        store.save(0, 0, _snapshot(0, 1.0))
        store.save(0, 1, _snapshot(1, 1.0))
        assert store.common_stage(2) is None  # rank 1 has nothing
        store.save(1, 0, _snapshot(0, 1.0))
        assert store.common_stage(2) == 0  # min over per-rank latests

    def test_disk_store_survives_torn_files_and_isolates_runs(self, tmp_path):
        store = DiskCheckpointStore(str(tmp_path), run_id="aaa")
        store.save(0, 0, _snapshot(0, 1.0))
        # A torn/corrupt checkpoint must read as "absent", not crash.
        path = store._path(0, 1)
        with open(path, "wb") as fh:
            fh.write(b"not a pickle")
        assert store.load(0, 1) is None
        # Unreadable-but-present files still count for latest_stage; a
        # second run id sees none of them.
        other = DiskCheckpointStore(str(tmp_path), run_id="bbb")
        assert other.latest_stage(0) is None
        other.clear()
        assert store.load(0, 0) is not None  # clear() scoped to run id

    def test_disk_store_keeps_every_stage(self, tmp_path):
        num_ranks, num_stages = 16, 4
        store = DiskCheckpointStore(str(tmp_path), run_id="all")
        for stage in range(num_stages):
            for rank in range(num_ranks):
                store.save(rank, stage, _snapshot(stage, float(stage)))
        files = [n for n in os.listdir(tmp_path) if n.endswith(".pkl")]
        assert len(files) == num_ranks * num_stages
        assert store.load(3, 0) is not None  # history retained until clear()
        store.clear()
        assert not os.listdir(tmp_path)

    def test_resumable_stage_survives_ranks_that_moved_on(self, tmp_path):
        """A rank past the common stage still holds it, so the lockstep
        replay restores instead of starting over."""
        store = DiskCheckpointStore(str(tmp_path), run_id="lag")
        for stage in (0, 1, 2):
            store.save(0, stage, _snapshot(stage, 1.0))
        for stage in (0, 1):
            store.save(1, stage, _snapshot(stage, 2.0))
        assert store.common_stage(2) == 1
        assert store.resumable_stage(2) == 1
        assert store.load(0, 1) is not None

    def test_disk_store_files_scoped_to_run(self, tmp_path):
        mine = DiskCheckpointStore(str(tmp_path), run_id="mine")
        other = DiskCheckpointStore(str(tmp_path), run_id="other")
        other.save(0, 0, _snapshot(0, 0.0))
        mine.save(0, 0, _snapshot(0, 0.0))
        mine.save(1, 0, _snapshot(0, 1.0))
        mine.save(0, 2, _snapshot(2, 2.0))
        assert mine.latest_stage(0) == 2 and other.latest_stage(0) == 0
        assert other.latest_stage(1) is None
        mine.clear()
        assert other.load(0, 0) is not None

    def test_disk_store_ignores_stray_files(self, tmp_path):
        store = DiskCheckpointStore(str(tmp_path), run_id="x")
        (tmp_path / "ckpt-x-r0-snotanint.pkl").write_bytes(b"junk")
        (tmp_path / "unrelated.txt").write_text("hello")
        store.save(0, 5, _snapshot(5, 5.0))
        assert store.latest_stage(0) == 5
        assert (tmp_path / "unrelated.txt").exists()

    def test_disk_store_is_picklable(self, tmp_path):
        store = DiskCheckpointStore(str(tmp_path), run_id="ccc")
        clone = pickle.loads(pickle.dumps(store))
        store.save(3, 2, _snapshot(2, 4.0))
        assert clone.latest_stage(3) == 2  # same root + run id

    def test_checkpointer_skips_stale_producer(self):
        store = MemoryCheckpointStore()
        events: list = []
        saver = StageCheckpointer(store, rank=0, sink=events)
        piece = _snapshot(0, 7.0)
        saver.save(0, piece, None, RankStats(rank=0), "bsbrc")
        restorer = StageCheckpointer(store, rank=0, resume=0, sink=events)
        assert restorer.restore("radix-k:rect-rle") is None  # stale
        got = restorer.restore("bsbrc")
        assert got is not None and np.array_equal(got.intensity, np.full((4, 4), 7.0))
        actions = [(e["event"], e["action"]) for e in events]
        assert actions == [("checkpoint", "save"), ("checkpoint", "restore")]

    def test_caller_owned_store_resumes_from_its_common_stage(self):
        """An empty caller-owned store is a fresh run that fills it; a
        second run against it restores the common stage on every rank
        and ends bit-identical to a clean run."""
        cfg = _config("bsbrc", {})
        clean = _baseline("bsbrc", {}, "sim")
        store = MemoryCheckpointStore()

        def restores(result):
            return [
                e for e in result.timeline.events
                if e.get("event") == "checkpoint" and e.get("action") == "restore"
            ]

        first = SortLastSystem(cfg).run(checkpoint_store=store)
        assert not restores(first)
        common = store.resumable_stage(NUM_RANKS)
        assert common is not None
        second = SortLastSystem(cfg).run(checkpoint_store=store)
        got = restores(second)
        assert sorted(e["rank"] for e in got) == list(range(NUM_RANKS))
        assert {e["stage"] for e in got} == {common}
        for result in (first, second):
            assert _images_equal(result.final_image, clean.final_image)
            assert _comm_fingerprint(result) == _comm_fingerprint(clean)


# ---------------------------------------------------------------------------
# Liveness and diagnosability satellites
# ---------------------------------------------------------------------------
class _EmptyChannel:
    def __init__(self):
        self.timeouts = []

    def get(self, timeout=None):
        self.timeouts.append(timeout)
        raise queue_mod.Empty


class _BrokenChannel:
    def __init__(self):
        self.puts = 0

    def put(self, frame):
        self.puts += 1
        raise OSError("broken pipe")


class TestLivenessAndDiagnostics:
    def test_receive_timeout_names_phase_stage_and_peer(self):
        queues = [[None, None], [_EmptyChannel(), None]]
        ctx = MPRankContext(0, 2, queues, 0.3)
        ctx.fault_checkpoint("composite")
        ctx.begin_stage(1)
        with pytest.raises(DeadlockError) as err:
            drive(ctx.recv(1, tag=4))
        assert err.value.peer == 1
        assert err.value.phase == "composite"
        assert err.value.stage == 1
        assert "recv from rank 1 (tag 4) timed out after 0.3s" in str(err.value)

    def test_silent_peer_waits_out_the_whole_timeout(self):
        """A peer that has sent nothing yet is not declared dead early:
        only the supervisor detects a death, so the receiver waits its
        full ``comm_timeout`` before the plain-timeout error."""
        channel = _EmptyChannel()
        queues = [[None, None], [channel, None]]
        ctx = MPRankContext(0, 2, queues, 0.3)
        with pytest.raises(DeadlockError) as err:
            drive(ctx.recv(1))
        assert channel.timeouts == [0.3]  # one wait, the whole timeout
        assert "timed out" in str(err.value)

    def test_failed_send_names_peer_and_stage(self):
        channel = _BrokenChannel()
        queues = [[None, channel], [None, None]]
        ctx = MPRankContext(0, 2, queues, 0.01)
        ctx.begin_stage(1)
        with pytest.raises(SimulationError) as err:
            drive(ctx.send(1, b"payload"))
        message = str(err.value)
        assert "to rank 1" in message and "stage 1" in message
        assert channel.puts == 1  # one put, no retries
        assert ctx.stats.stage(1).msgs_sent == 0  # nothing accounted

    def test_deadlock_error_carries_location(self):
        err = DeadlockError(
            {0: "RecvOp(src=1)"}, phase="composite", stage=2, peer=1
        )
        assert err.phase == "composite" and err.stage == 2 and err.peer == 1
        assert "phase 'composite'" in str(err)
        assert "stage 2" in str(err)
        assert "waiting on rank 1" in str(err)

    def test_deadlock_error_back_compat(self):
        err = DeadlockError({0: "RecvOp(src=1)", 1: "RecvOp(src=0)"})
        assert err.blocked == {0: "RecvOp(src=1)", 1: "RecvOp(src=0)"}
        assert err.phase is None and err.stage is None and err.peer is None
        assert "[" not in str(err)

    def test_sim_deadlock_names_stages(self):
        from repro.cluster.backend import SimBackend
        from repro.cluster.model import SP2

        with pytest.raises(DeadlockError) as err:
            SimBackend().run(2, _deadlock_program, model=SP2)
        assert "(stage 3)" in str(err.value)
        assert set(err.value.blocked) == {0, 1}


async def _deadlock_program(ctx):
    """Both ranks receive, nobody sends: a structural deadlock."""
    ctx.begin_stage(3)
    await ctx.recv((ctx.rank + 1) % ctx.size)
