"""Unit tests for the fault-injection subsystem (repro.cluster.faults).

Chaos / end-to-end fault scenarios live in ``test_chaos.py``; this file
covers the building blocks: rule/plan validation and serialization,
injector determinism, frame checksums, survivor refolding geometry, and
the hardened multiprocessing supervisor.
"""

from __future__ import annotations

import os
import random
import time

import numpy as np
import pytest

from repro.cluster.faults import (
    CorruptFrame,
    FaultPlan,
    FaultRule,
    InjectedCrash,
    RankFaultInjector,
    check_received,
    corrupt_bytes,
    crash_phase_of,
    frame_checksum,
)
from repro.cluster.mp_backend import run_rank_programs_mp
from repro.errors import (
    ConfigurationError,
    DeadlockError,
    PartitionError,
    RankFailedError,
    WireFormatError,
)
from repro.pipeline.config import RunConfig
from repro.volume.partition import recursive_bisect
from repro.volume.folded import refold_survivors


# ---------------------------------------------------------------------------
# FaultRule / FaultPlan validation and serialization
# ---------------------------------------------------------------------------
class TestFaultRuleValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown fault kind"):
            FaultRule(kind="meteor", rank=0)

    def test_negative_rank_rejected(self):
        with pytest.raises(ConfigurationError, match="rank must be >= 0"):
            FaultRule(kind="drop", rank=-1)

    def test_probability_bounds(self):
        with pytest.raises(ConfigurationError, match="probability"):
            FaultRule(kind="drop", rank=0, probability=1.5)

    def test_crash_needs_target(self):
        with pytest.raises(ConfigurationError, match="stage= or phase="):
            FaultRule(kind="crash", rank=0)

    def test_crash_phase_vocabulary(self):
        with pytest.raises(ConfigurationError, match="crash phase"):
            FaultRule(kind="crash", rank=0, phase="teardown")

    def test_delay_needs_seconds(self):
        with pytest.raises(ConfigurationError, match="seconds > 0"):
            FaultRule(kind="delay", rank=0)

    def test_max_applications_defaults(self):
        assert FaultRule(kind="drop", rank=0).max_applications == 1
        assert FaultRule(kind="slow", rank=0, seconds=0.1).max_applications == 0

    def test_plan_rejects_non_rules(self):
        with pytest.raises(ConfigurationError, match="must hold FaultRule"):
            FaultPlan(rules=({"kind": "drop", "rank": 0},))


class TestFaultPlanSerialization:
    def _plan(self) -> FaultPlan:
        return FaultPlan(
            rules=(
                FaultRule(kind="crash", rank=2, stage=1),
                FaultRule(kind="drop", rank=0, dst=1, tag=5, probability=0.5),
                FaultRule(kind="delay", rank=1, seconds=0.25, max_applications=3),
                FaultRule(kind="corrupt", rank=3, stage=0),
                FaultRule(kind="slow", rank=1, seconds=0.01),
            ),
            seed=1234,
        )

    def test_json_round_trip(self):
        plan = self._plan()
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_schema_checked(self):
        with pytest.raises(ConfigurationError, match="fault-plan schema"):
            FaultPlan.from_dict({"schema": "bogus/9", "rules": []})

    def test_save_load(self, tmp_path):
        plan = self._plan()
        path = os.path.join(tmp_path, "plan.json")
        plan.save(path)
        assert FaultPlan.load(path) == plan

    def test_rules_for_and_injector_for(self):
        plan = self._plan()
        assert [i for i, _ in plan.rules_for(1)] == [2, 4]
        assert plan.injector_for(7) is None
        assert isinstance(plan.injector_for(0), RankFaultInjector)


# ---------------------------------------------------------------------------
# Injector determinism and behavior
# ---------------------------------------------------------------------------
class TestInjector:
    def test_crash_on_stage_fires_once_and_records(self):
        plan = FaultPlan(rules=(FaultRule(kind="crash", rank=0, stage=2),), seed=1)
        injector = plan.injector_for(0)
        injector.on_stage(0)  # no match
        with pytest.raises(InjectedCrash) as err:
            injector.on_stage(2)
        assert err.value.stage == 2
        assert injector.events == [
            {"event": "injected", "fault": "crash", "rank": 0, "rule": 0, "stage": 2}
        ]

    def test_checkpoint_crash_carries_phase(self):
        plan = FaultPlan(rules=(FaultRule(kind="crash", rank=1, phase="render"),))
        injector = plan.injector_for(1)
        injector.checkpoint("composite")
        with pytest.raises(InjectedCrash) as err:
            injector.checkpoint("render")
        assert err.value.phase == "render"
        assert crash_phase_of(RankFailedError(1, err.value)) == "render"

    def test_message_filters(self):
        plan = FaultPlan(
            rules=(FaultRule(kind="drop", rank=0, dst=2, tag=7, stage=1),), seed=3
        )
        injector = plan.injector_for(0)
        assert injector.on_message("send", dst=1, tag=7, stage=1) is None
        assert injector.on_message("send", dst=2, tag=0, stage=1) is None
        assert injector.on_message("send", dst=2, tag=7, stage=0) is None
        faults = injector.on_message("send", dst=2, tag=7, stage=1)
        assert faults is not None and faults.drop
        # max_applications=1: never again
        assert injector.on_message("send", dst=2, tag=7, stage=1) is None

    def test_probabilistic_rule_is_seed_deterministic(self):
        plan = FaultPlan(
            rules=(
                FaultRule(
                    kind="drop", rank=0, probability=0.5, max_applications=0
                ),
            ),
            seed=99,
        )

        def decisions():
            injector = plan.injector_for(0)
            return [
                injector.on_message("send", dst=1, tag=0, stage=s) is not None
                for s in range(32)
            ]

        first, second = decisions(), decisions()
        assert first == second
        assert any(first) and not all(first)  # the coin actually flips

    def test_delay_accumulates_and_slow_is_persistent(self):
        plan = FaultPlan(
            rules=(
                FaultRule(kind="slow", rank=0, seconds=0.5),
                FaultRule(kind="delay", rank=0, seconds=0.25),
            ),
        )
        injector = plan.injector_for(0)
        first = injector.on_message("send", dst=1, tag=0, stage=0)
        assert first.delay == pytest.approx(0.75)
        second = injector.on_message("send", dst=1, tag=0, stage=0)
        assert second.delay == pytest.approx(0.5)  # delay exhausted, slow persists

    def test_event_sink_is_used(self):
        sink: list = []
        plan = FaultPlan(rules=(FaultRule(kind="drop", rank=0),))
        injector = plan.injector_for(0, sink=sink)
        injector.on_message("send", dst=1, tag=0, stage=0)
        assert sink and sink[0]["fault"] == "drop"


# ---------------------------------------------------------------------------
# Checksums and corruption primitives
# ---------------------------------------------------------------------------
class TestChecksums:
    def test_frame_checksum_shapes(self):
        assert frame_checksum(None) is None
        assert frame_checksum(b"abc") == frame_checksum(bytearray(b"abc"))
        arr = np.arange(12, dtype=np.float64)
        assert frame_checksum(arr) == frame_checksum(arr.tobytes())
        assert frame_checksum(arr[::2]) is None  # non-contiguous

    def test_corrupt_bytes_changes_exactly_one_byte(self):
        rng = random.Random(0)
        data = bytes(range(64))
        damaged = corrupt_bytes(data, rng)
        assert len(damaged) == len(data)
        assert sum(a != b for a, b in zip(data, damaged)) == 1
        assert corrupt_bytes(b"", rng) == b"\xff"

    def test_check_received_passthrough_and_raise(self):
        assert check_received(b"ok", rank=0, src=1, tag=0, backend="simulator") == b"ok"
        frame = CorruptFrame(b"damaged", crc=0xDEADBEEF, nbytes=7)
        with pytest.raises(WireFormatError, match="failed CRC32"):
            check_received(frame, rank=0, src=1, tag=3, backend="simulator")


# ---------------------------------------------------------------------------
# Survivor refolding geometry
# ---------------------------------------------------------------------------
class TestRefoldSurvivors:
    def test_refold_p8_single_failure(self):
        plan = recursive_bisect((32, 32, 32), 8)
        folded, rank_map = refold_survivors(plan, {3})
        assert folded.core_ranks == 4
        # Pair (2,3) lost its odd member: 3 intact pairs keep extras.
        assert folded.num_extras == 3
        assert folded.num_ranks == 7
        # Core 1 is the bereaved survivor: rank 2 renders the merged block.
        assert rank_map[1] == 2
        assert folded.extent(1) == folded.core_plan.extent(1)
        assert 1 not in folded.extra_of_core
        # Intact pairs: even leaf is the core with its original extent.
        for core in (0, 2, 3):
            assert rank_map[core] == 2 * core
            assert folded.extent(core) == plan.extent(2 * core)
            extra = folded.extra_of_core[core]
            assert rank_map[extra] == 2 * core + 1
            assert folded.extent(extra) == plan.extent(2 * core + 1)
            assert folded.fold_axis[core] == plan.stage_axes[2 * core][0]
        # Core stage axes drop the stage-0 (pair) split.
        for core in range(4):
            assert folded.core_plan.stage_axes[core] == plan.stage_axes[2 * core][1:]

    def test_refold_merges_cover_the_volume(self):
        plan = recursive_bisect((16, 32, 8), 8)
        folded, _ = refold_survivors(plan, {0})
        voxels = sum(folded.core_plan.extent(i).num_voxels for i in range(4))
        assert voxels == 16 * 32 * 8
        # Survivor of pair 0 is the odd member.
        assert folded.extent(0) == folded.core_plan.extent(0)

    def test_refold_p2(self):
        plan = recursive_bisect((8, 8, 8), 2)
        folded, rank_map = refold_survivors(plan, {1})
        assert folded.num_ranks == 1 and folded.core_ranks == 1
        assert rank_map == [0]
        assert folded.core_plan.extent(0).num_voxels == 512
        assert folded.core_plan.stage_axes == ((),)

    def test_both_pair_members_dead_is_unrecoverable(self):
        plan = recursive_bisect((16, 16, 16), 4)
        with pytest.raises(PartitionError, match="no survivor"):
            refold_survivors(plan, {2, 3})

    def test_invalid_inputs(self):
        plan = recursive_bisect((16, 16, 16), 4)
        with pytest.raises(PartitionError, match="no failed ranks"):
            refold_survivors(plan, set())
        with pytest.raises(PartitionError, match="not in plan"):
            refold_survivors(plan, {9})


# ---------------------------------------------------------------------------
# Hardened multiprocessing supervisor
# ---------------------------------------------------------------------------
async def _boom_program(ctx):
    if ctx.rank == 1:
        raise ValueError("boom")
    return ctx.rank


async def _sudden_death_program(ctx):
    if ctx.rank == 1:
        os._exit(17)  # die without reporting a result
    peer = 1 if ctx.rank == 0 else 0
    if ctx.rank == 0:
        return await ctx.recv(peer, tag=0)
    return None


async def _sudden_death_irecv_program(ctx):
    """Rank 0 waits on a posted irecv, the tile router's shape."""
    if ctx.rank == 1:
        os._exit(17)
    request = await ctx.irecv(1, tag=0)
    await ctx.isend(1, b"tile", tag=0)
    return await ctx.wait(request)


async def _never_sent_program(ctx):
    if ctx.rank == 0:
        ctx.fault_checkpoint("composite")
        ctx.begin_stage(2)
        return await ctx.recv(1, tag=0)  # rank 1 never sends
    return None


class TestMPSupervisor:
    def test_traceback_ships_across_the_process_boundary(self):
        with pytest.raises(RankFailedError) as err:
            run_rank_programs_mp(2, _boom_program, timeout=15)
        failure = err.value
        assert failure.rank == 1
        assert failure.original_type == "ValueError"
        assert "boom" in str(failure)
        assert failure.traceback_text is not None
        assert "_boom_program" in failure.traceback_text

    def test_dead_worker_detected_fast(self):
        start = time.monotonic()
        with pytest.raises(RankFailedError) as err:
            run_rank_programs_mp(2, _sudden_death_program, timeout=60)
        elapsed = time.monotonic() - start
        assert err.value.rank == 1
        assert "exited with code 17" in str(err.value)
        # Fail-fast: far below the 60 s receive timeout.
        assert elapsed < 5.0

    def test_dead_worker_detected_fast_under_irecv(self):
        start = time.monotonic()
        with pytest.raises(RankFailedError) as err:
            run_rank_programs_mp(2, _sudden_death_irecv_program, timeout=60)
        elapsed = time.monotonic() - start
        assert err.value.rank == 1
        assert "exited with code 17" in str(err.value)
        assert elapsed < 5.0

    def test_missing_sender_raises_typed_deadlock(self):
        start = time.monotonic()
        with pytest.raises(DeadlockError, match=r"recv from rank 1 \(tag 0\)") as err:
            run_rank_programs_mp(2, _never_sent_program, timeout=2)
        assert time.monotonic() - start >= 2.0  # only after comm_timeout
        assert err.value.phase == "composite"
        assert err.value.stage == 2
        assert err.value.peer == 1


# ---------------------------------------------------------------------------
# RunConfig plumbing
# ---------------------------------------------------------------------------
class TestCommTimeoutConfig:
    def test_valid_and_default(self):
        assert RunConfig().comm_timeout is None
        assert RunConfig(comm_timeout=3.5).comm_timeout == 3.5

    def test_invalid_rejected(self):
        with pytest.raises(ConfigurationError, match="comm_timeout"):
            RunConfig(comm_timeout=0.0)
