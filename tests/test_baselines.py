"""Behavioral tests specific to the related-work baseline compositors."""

import numpy as np
import pytest

from conftest import random_subimages, rendered_workload, reference_image
from repro.cluster.model import IDEALIZED, SP2
from repro.compositing.baselines import _Partial, strip_rect
from repro.errors import CompositingError, WireFormatError
from repro.pipeline.system import assemble_final, run_compositing
from repro.render.image import SubImage
from repro.types import Rect


class TestStripRect:
    def test_strips_partition_rows(self):
        strips = [strip_rect(48, 40, r, 8) for r in range(8)]
        assert strips[0].y0 == 0
        assert strips[-1].y1 == 48
        total = sum(s.area for s in strips)
        assert total == 48 * 40
        for a, b in zip(strips, strips[1:]):
            assert a.y1 == b.y0

    def test_uneven_height(self):
        strips = [strip_rect(10, 4, r, 4) for r in range(4)]
        assert sum(s.area for s in strips) == 40
        assert all(not s.is_empty for s in strips)

    def test_more_ranks_than_rows(self):
        strips = [strip_rect(2, 4, r, 4) for r in range(4)]
        assert sum(s.area for s in strips) == 8
        assert sum(1 for s in strips if s.is_empty) == 2

    def test_bad_rank(self):
        with pytest.raises(CompositingError):
            strip_rect(8, 8, 9, 8)


class TestDirectSend:
    def test_each_rank_owns_its_strip(self):
        subimages, plan, camera = rendered_workload("engine_low", 8)
        run = run_compositing(list(subimages), "direct", plan, camera.view_dir, SP2)
        h, w = subimages[0].shape
        for rank, outcome in enumerate(run.outcomes):
            assert outcome[0].part.rect == strip_rect(h, w, rank, 8)

    def test_message_count_p_minus_one(self):
        subimages, plan, camera = rendered_workload("engine_low", 8)
        run = run_compositing(list(subimages), "direct", plan, camera.view_dir, SP2)
        for rank_stats in run.stats.rank_stats:
            assert rank_stats.msgs_recv == 7
            assert rank_stats.msgs_sent == 7

    def test_sparse_contributions_skip_pixels(self):
        """Direct send with rect packing ships far fewer bytes than the
        dense buffered case would (A/P pixels from each of P-1 senders)."""
        subimages, plan, camera = rendered_workload("engine_high", 8)
        run = run_compositing(list(subimages), "direct", plan, camera.view_dir, SP2)
        dense_bound = 7 * (subimages[0].num_pixels // 8) * 16
        assert run.stats.mmax_bytes < dense_bound


class TestBinaryTree:
    def test_half_the_ranks_drop_out_each_stage(self):
        subimages, plan, camera = rendered_workload("engine_low", 8)
        run = run_compositing(list(subimages), "tree", plan, camera.view_dir, SP2)
        # Rank 0 receives log2(P) messages; odd ranks send exactly one.
        assert run.stats.rank_stats[0].msgs_recv == 3
        assert run.stats.rank_stats[1].msgs_sent == 1
        assert run.stats.rank_stats[1].msgs_recv == 0
        # Rank 2 receives once (stage 0) then sends once (stage 1).
        assert run.stats.rank_stats[2].msgs_recv == 1
        assert run.stats.rank_stats[2].msgs_sent == 1

    def test_root_image_is_complete(self):
        subimages, plan, camera = rendered_workload("engine_low", 8)
        reference = reference_image("engine_low", 8)
        run = run_compositing(list(subimages), "tree", plan, camera.view_dir, SP2)
        (root,) = run.outcomes[0]
        assert root.part.rect == subimages[0].full_rect()
        assert SubImage(root.intensity, root.opacity).max_abs_diff(reference) < 1e-9

    def test_root_does_all_the_over_work(self):
        subimages, plan, camera = rendered_workload("engine_low", 8)
        run = run_compositing(list(subimages), "tree", plan, camera.view_dir, SP2)
        over0 = run.stats.rank_stats[0].counter_total("over")
        assert over0 > 0
        assert over0 >= max(
            rs.counter_total("over") for rs in run.stats.rank_stats[1:]
        )


class TestParallelPipeline:
    def test_owned_strips_partition(self):
        subimages, plan, camera = rendered_workload("engine_low", 8)
        run = run_compositing(list(subimages), "pipeline", plan, camera.view_dir, SP2)
        h, w = subimages[0].shape
        owned = sorted(
            (o[0].part.rect.y0, o[0].part.rect.y1) for o in run.outcomes
        )
        assert owned[0][0] == 0 and owned[-1][1] == h
        for (y0a, y1a), (y0b, y1b) in zip(owned, owned[1:]):
            assert y1a == y0b

    @pytest.mark.parametrize(
        "num_ranks, stage_bytes",
        [
            (2, [0, 6176]),
            (4, [0, 1424, 7280, 8352]),
            (8, [0, 2592, 3248, 4816, 7568, 8976, 9408, 10592]),
        ],
    )
    def test_per_stage_bytes_pinned(self, num_ranks, stage_bytes):
        """Bytes each stage moves, summed over ranks (pre-stage first)."""
        subimages, plan, camera = rendered_workload("engine_low", num_ranks)
        run = run_compositing(list(subimages), "pipeline", plan, camera.view_dir, SP2)
        stages = sorted(run.stats.rank_stats[0].stages)
        for direction in ("bytes_sent", "bytes_recv"):
            totals = [
                sum(getattr(rs.stage(k), direction) for rs in run.stats.rank_stats)
                for k in stages
            ]
            assert totals == stage_bytes, direction

    def test_p_minus_one_transfer_steps(self):
        subimages, plan, camera = rendered_workload("engine_low", 8)
        run = run_compositing(list(subimages), "pipeline", plan, camera.view_dir, SP2)
        for rank_stats in run.stats.rank_stats:
            assert rank_stats.msgs_sent == 7
            assert rank_stats.msgs_recv == 7

    def test_two_ranks(self, rng):
        from repro.render.reference import composite_sequential
        from repro.volume.partition import depth_order, recursive_bisect

        plan = recursive_bisect((16, 16, 8), 2)
        view = np.array([0.5, 0.5, -0.7])
        images = random_subimages(rng, 2, 20, 20)
        reference = composite_sequential(images, depth_order(plan, view))
        run = run_compositing(images, "pipeline", plan, view, IDEALIZED)
        final = assemble_final(run.outcomes, 20, 20)
        assert final.max_abs_diff(reference) < 1e-12

    @pytest.mark.parametrize("rotation", [(0, 0, 0), (0, 180, 0), (40, -100, 0)])
    def test_wrap_order_correct_across_views(self, rotation):
        """Views that invert the ring ordering exercise the dual-accumulator
        wrap logic."""
        subimages, plan, camera = rendered_workload(
            "engine_low", 4, 48, tuple(float(x) for x in rotation)
        )
        reference = reference_image("engine_low", 4, 48, tuple(float(x) for x in rotation))
        run = run_compositing(list(subimages), "pipeline", plan, camera.view_dir, SP2)
        final = assemble_final(run.outcomes, 48, 48)
        assert final.max_abs_diff(reference) < 1e-9


class TestPipelinePartialWire:
    """A partial crosses the wire as two BSBR messages, front then back."""

    @staticmethod
    def _packed():
        strip = Rect(0, 0, 4, 6)
        partial = _Partial(strip)
        partial.front_i[1:3, 2:4] = 0.5
        partial.front_a[1:3, 2:4] = 0.25
        partial.back_i[0, 0] = partial.back_a[0, 0] = 1.0
        return strip, partial, partial.pack().buffer

    def test_roundtrip(self):
        strip, partial, raw = self._packed()
        got = _Partial.unpack(raw, strip)
        for plane in ("front_i", "front_a", "back_i", "back_a"):
            assert np.array_equal(getattr(got, plane), getattr(partial, plane)), plane

    @pytest.mark.parametrize("cut", [5, 20, -1])
    def test_truncated_rejected(self, cut):
        strip, _, raw = self._packed()
        with pytest.raises(WireFormatError):
            _Partial.unpack(raw[:cut], strip)

    def test_trailing_bytes_rejected(self):
        strip, _, raw = self._packed()
        with pytest.raises(WireFormatError, match="trailing bytes"):
            _Partial.unpack(raw + b"\x00", strip)
