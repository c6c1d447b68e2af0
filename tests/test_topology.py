"""Tests for the hypercube bit helpers and the communication patterns
built on them (binary-swap pairing, binary-tree combining)."""

import numpy as np
import pytest

from repro.cluster.hypercube import is_power_of_two, keeps_low_half, log2_int
from repro.cluster.model import SP2
from repro.compositing.schedule import BinarySwapSchedule
from repro.errors import ConfigurationError
from repro.pipeline.system import run_compositing
from repro.render.image import SubImage
from repro.types import Rect
from repro.volume.partition import recursive_bisect

VIEW = np.array([0.37, -0.61, 0.70])
FRAME = Rect(0, 0, 64, 64)


def _swap_partners(size):
    """``partners[rank][stage]`` as the binary-swap schedule pairs them."""
    plan = recursive_bisect((32, 32, 16), size)
    schedule = BinarySwapSchedule()
    partners = []
    for rank in range(size):
        program = schedule.build(rank, size, FRAME, FRAME.area, plan, VIEW)
        assert all(len(stage.steps) == 1 for stage in program.stages)
        partners.append([stage.steps[0].peer for stage in program.stages])
    return partners


def _tree_traffic(size):
    """Per stage, the (senders, receivers) of the ``tree`` baseline, read
    off the simulator's per-rank message counters."""
    plan = recursive_bisect((32, 32, 16), size)
    images = [SubImage.blank(8, 8) for _ in range(size)]
    run = run_compositing(images, "tree", plan, VIEW, SP2)
    stages = []
    for stage in range(log2_int(size)):
        sent = {r: rs.stages[stage].msgs_sent
                for r, rs in enumerate(run.stats.rank_stats) if stage in rs.stages}
        recv = {r: rs.stages[stage].msgs_recv
                for r, rs in enumerate(run.stats.rank_stats) if stage in rs.stages}
        assert set(sent.values()) <= {0, 1} and set(recv.values()) <= {0, 1}
        stages.append(({r for r, n in sent.items() if n},
                       {r for r, n in recv.items() if n}))
    return stages


class TestPowersOfTwo:
    def test_is_power_of_two(self):
        assert all(is_power_of_two(1 << k) for k in range(12))
        assert not any(is_power_of_two(n) for n in (0, -1, 3, 5, 6, 7, 12, 100))

    def test_log2_int(self):
        assert log2_int(1) == 0
        assert log2_int(64) == 6

    def test_log2_int_rejects(self):
        with pytest.raises(ConfigurationError):
            log2_int(12)


class TestBinarySwap:
    @pytest.mark.parametrize("size", [2, 4, 8, 16, 32, 64])
    def test_partner_is_involution(self, size):
        partners = _swap_partners(size)
        for stage in range(log2_int(size)):
            for rank in range(size):
                partner = partners[rank][stage]
                assert partner != rank
                assert partners[partner][stage] == rank

    @pytest.mark.parametrize("size", [2, 8, 64])
    def test_each_stage_is_perfect_matching(self, size):
        partners = _swap_partners(size)
        for stage in range(log2_int(size)):
            assert {partners[r][stage] for r in range(size)} == set(range(size))

    def test_schedule_visits_distinct_partners(self):
        sched = _swap_partners(16)[5]
        assert len(sched) == 4
        assert len(set(sched)) == 4
        assert sched == [4, 7, 1, 13]

    def test_keeps_low_half_complementary(self):
        for size in (2, 8, 32):
            partners = _swap_partners(size)
            for stage in range(log2_int(size)):
                for rank in range(size):
                    partner = partners[rank][stage]
                    assert keeps_low_half(rank, stage) != keeps_low_half(partner, stage)

    @pytest.mark.parametrize("size", [2, 4, 8, 16])
    def test_final_ownership_unique(self, size):
        """Following keep decisions through all stages assigns each rank a
        unique leaf of the halving tree (a distinct final image region)."""
        paths = set()
        for rank in range(size):
            path = tuple(keeps_low_half(rank, s) for s in range(log2_int(size)))
            paths.add(path)
        assert len(paths) == size


class TestBinaryTree:
    @pytest.mark.parametrize("size", [2, 4, 8, 16])
    def test_every_nonzero_rank_sends_once(self, size):
        stages = _tree_traffic(size)
        sends = [sum(rank in senders for senders, _ in stages) for rank in range(size)]
        assert sends == [0] + [1] * (size - 1)
        # Every send goes down to a rank that is still alive at that stage.
        for stage, (senders, _) in enumerate(stages):
            assert all(0 <= rank - (1 << stage) < rank for rank in senders)

    @pytest.mark.parametrize("size", [2, 4, 8, 16])
    def test_recv_matches_send(self, size):
        """For each stage, the receivers are exactly that stage's senders'
        peers ``sender - 2**stage``."""
        for stage, (senders, receivers) in enumerate(_tree_traffic(size)):
            assert senders
            assert {rank - (1 << stage) for rank in senders} == receivers

    def test_rank0_receives_log_times(self):
        assert [0 in receivers for _, receivers in _tree_traffic(16)] == [True] * 4
