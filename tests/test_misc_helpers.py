"""Tests for small helpers not covered elsewhere."""

import numpy as np
import pytest

from conftest import rendered_workload
from repro.cluster.model import SP2
from repro.cluster.stats import StageStats, merge_counters
from repro.compositing.schedule import SectionedSchedule
from repro.pipeline.system import run_compositing
from repro.types import Rect
from repro.volume.partition import recursive_bisect


def final_owned_indices(rank, size, num_pixels, **options):
    """The index set ``rank`` ends up owning under the sectioned schedule."""
    program = SectionedSchedule(**options).build(
        rank, size, Rect(0, 0, 1, num_pixels), num_pixels,
        recursive_bisect((32, 32, 16), size), np.array([0.0, 0.0, 1.0]),
    )
    return program.final_part.flat()


class TestFinalOwnedIndices:
    @pytest.mark.parametrize("num_ranks", [2, 4, 8])
    def test_matches_actual_bslc_ownership(self, num_ranks):
        """The schedule's final part is deterministic in (P, A, section)
        — independent of plan and view — and equals what the ranks
        actually ended up owning."""
        subimages, plan, camera = rendered_workload("engine_low", num_ranks)
        run = run_compositing(list(subimages), "bslc", plan, camera.view_dir, SP2)
        num_pixels = subimages[0].num_pixels
        for rank, outcome in enumerate(run.outcomes):
            recomputed = final_owned_indices(rank, num_ranks, num_pixels)
            assert np.array_equal(outcome[0].part.flat(), recomputed)

    def test_respects_section(self):
        a = final_owned_indices(0, 2, 64, section=1)
        b = final_owned_indices(0, 2, 64, section=8)
        assert not np.array_equal(a, b)
        assert a.size == b.size == 32

    def test_partition_across_ranks(self):
        owned = [final_owned_indices(r, 4, 100, section=3) for r in range(4)]
        combined = np.sort(np.concatenate(owned))
        assert np.array_equal(combined, np.arange(100))


class TestMergeCounters:
    def test_sums_across_buckets(self):
        a = StageStats(stage=0, counters={"over": 10, "encode": 5})
        b = StageStats(stage=1, counters={"over": 3})
        merged = merge_counters([a, b])
        assert merged == {"over": 13, "encode": 5}

    def test_empty(self):
        assert merge_counters([]) == {}


class TestStageStatsHelpers:
    def test_elapsed_time(self):
        stats = StageStats(stage=0, comp_time=1.0, comm_time=0.5, wait_time=0.25)
        assert stats.total_time == pytest.approx(1.5)
        assert stats.elapsed_time == pytest.approx(1.75)

    def test_add_counter_ignores_zero(self):
        stats = StageStats(stage=0)
        stats.add_counter("x", 0)
        assert "x" not in stats.counters
