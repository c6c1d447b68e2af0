"""Tests for the non-power-of-two folding extension (paper §5, item 1)."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import random_subimages
from repro.cluster.model import IDEALIZED, SP2
from repro.compositing.folding import FoldedCompositor
from repro.compositing.registry import make_compositor
from repro.errors import CompositingError, PartitionError
from repro.pipeline.config import RunConfig
from repro.pipeline.system import (
    SortLastSystem,
    assemble_final,
    run_compositing,
    validate_ownership,
)
from repro.render.camera import Camera
from repro.render.raycast import render_subvolume
from repro.render.reference import composite_sequential
from repro.volume.datasets import make_dataset
from repro.volume.folded import core_count, folded_depth_order, partition_folded
from repro.volume.partition import recursive_bisect

SHAPE = (48, 48, 24)


def rendered_folded(dataset, num_ranks, image_size=64):
    volume, transfer = make_dataset(dataset, SHAPE)
    camera = Camera(
        width=image_size, height=image_size, volume_shape=volume.shape,
        rot_x=25, rot_y=40,
    )
    folded = partition_folded(volume.shape, num_ranks)
    subimages = [
        render_subvolume(volume, transfer, camera, folded.extent(r))
        for r in range(num_ranks)
    ]
    return subimages, folded, camera


class TestCoreCount:
    def test_values(self):
        assert core_count(1) == 1
        assert core_count(2) == 2
        assert core_count(3) == 2
        assert core_count(7) == 4
        assert core_count(8) == 8
        assert core_count(63) == 32

    def test_rejects_zero(self):
        with pytest.raises(PartitionError):
            core_count(0)


class TestFoldedPartition:
    @pytest.mark.parametrize("num_ranks", [1, 2, 3, 5, 6, 7, 11, 12, 24, 31])
    def test_extents_partition_volume(self, num_ranks):
        folded = partition_folded(SHAPE, num_ranks)
        counts = np.zeros(SHAPE, dtype=np.int32)
        for rank in range(num_ranks):
            sx, sy, sz = folded.extent(rank).slices()
            counts[sx, sy, sz] += 1
        assert (counts == 1).all()

    def test_power_of_two_degenerates(self):
        folded = partition_folded(SHAPE, 8)
        assert folded.num_extras == 0
        plain = recursive_bisect(SHAPE, 8)
        assert folded.extents == plain.extents

    def test_buddy_maps_consistent(self):
        folded = partition_folded(SHAPE, 11)
        assert folded.core_ranks == 8
        assert folded.num_extras == 3
        for extra, core in folded.buddy_of_extra.items():
            assert folded.extra_of_core[core] == extra
            assert folded.is_extra(extra)
            assert not folded.is_extra(core)

    def test_fold_splits_largest_blocks(self):
        """Extras halve the biggest blocks — per-rank load stays balanced."""
        folded = partition_folded(SHAPE, 12)
        sizes = [folded.extent(r).num_voxels for r in range(12)]
        assert max(sizes) <= 2 * min(sizes)

    def test_folded_depth_order_permutation(self):
        folded = partition_folded(SHAPE, 13)
        order = folded_depth_order(folded, np.array([0.3, -0.7, 0.5]))
        assert sorted(order) == list(range(13))

    def test_fold_pair_adjacent_in_order(self):
        folded = partition_folded(SHAPE, 6)
        order = folded_depth_order(folded, np.array([0.3, -0.7, 0.5]))
        pos = {r: i for i, r in enumerate(order)}
        for extra, core in folded.buddy_of_extra.items():
            assert abs(pos[extra] - pos[core]) == 1


class TestFoldedCompositing:
    @pytest.mark.parametrize("num_ranks", [3, 5, 6, 7, 12, 13, 24])
    @pytest.mark.parametrize("method", ["bs", "bsbrc"])
    def test_matches_sequential_reference(self, num_ranks, method):
        subimages, folded, camera = rendered_folded("engine_low", num_ranks)
        reference = composite_sequential(
            subimages, folded_depth_order(folded, camera.view_dir)
        )
        run = run_compositing(subimages, method, folded, camera.view_dir, SP2)
        final = assemble_final(run.outcomes, 64, 64)
        assert final.max_abs_diff(reference) < 1e-9
        validate_ownership(run.outcomes, 64, 64)

    @pytest.mark.parametrize("method", ["bsbr", "bslc"])
    def test_other_methods_p6(self, method):
        subimages, folded, camera = rendered_folded("cube", 6)
        reference = composite_sequential(
            subimages, folded_depth_order(folded, camera.view_dir)
        )
        run = run_compositing(subimages, method, folded, camera.view_dir, SP2)
        final = assemble_final(run.outcomes, 64, 64)
        assert final.max_abs_diff(reference) < 1e-9

    def test_extras_own_nothing(self):
        subimages, folded, camera = rendered_folded("engine_low", 6)
        run = run_compositing(subimages, "bsbrc", folded, camera.view_dir, SP2)
        for extra in folded.buddy_of_extra:
            assert run.outcomes[extra][0].part.rect.is_empty

    def test_extras_send_exactly_one_message(self):
        subimages, folded, camera = rendered_folded("engine_low", 6)
        run = run_compositing(subimages, "bsbrc", folded, camera.view_dir, SP2)
        for extra in folded.buddy_of_extra:
            stats = run.stats.rank_stats[extra]
            assert stats.msgs_sent == 1
            assert stats.msgs_recv == 0

    def test_pow2_folded_equals_plain(self):
        """With no extras the wrapper must be byte-identical to the plain
        method, per rank and per stage."""
        subimages, folded, camera = rendered_folded("engine_low", 8)
        plain_plan = recursive_bisect(SHAPE, 8)
        folded_run = run_compositing(subimages, "bsbrc", folded, camera.view_dir, SP2)
        plain_run = run_compositing(subimages, "bsbrc", plain_plan, camera.view_dir, SP2)
        for a, b in zip(folded_run.stats.rank_stats, plain_run.stats.rank_stats):
            assert a.bytes_recv == b.bytes_recv
            assert a.comm_time == pytest.approx(b.comm_time)
        final_a = assemble_final(folded_run.outcomes, 64, 64)
        final_b = assemble_final(plain_run.outcomes, 64, 64)
        assert final_a.max_abs_diff(final_b) == 0.0

    def test_requires_folded_partition(self):
        from repro.errors import RankFailedError

        subimages, _, camera = rendered_folded("engine_low", 4)
        plain = recursive_bisect(SHAPE, 4)
        wrapper = FoldedCompositor(make_compositor("bs"))
        # The mismatch surfaces inside the rank coroutine, wrapped by the
        # simulator's failure reporting.
        with pytest.raises(RankFailedError) as excinfo:
            run_compositing(subimages, wrapper, plain, camera.view_dir, SP2)
        assert isinstance(excinfo.value.original, CompositingError)

    def test_name_reflects_inner(self):
        wrapper = FoldedCompositor(make_compositor("bslc"))
        assert wrapper.name == "folded-bslc"

    @given(
        num_ranks=st.integers(2, 12),
        seed=st.integers(0, 1000),
        density=st.floats(0.0, 0.8),
    )
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_random_images_any_p(self, num_ranks, seed, density):
        rng = np.random.default_rng(seed)
        folded = partition_folded((32, 32, 16), num_ranks)
        images = random_subimages(rng, num_ranks, 24, 24, density)
        view = np.array([0.4, -0.3, 0.85])
        reference = composite_sequential(images, folded_depth_order(folded, view))
        run = run_compositing(images, "bsbrc", folded, view, IDEALIZED)
        final = assemble_final(run.outcomes, 24, 24)
        assert final.max_abs_diff(reference) < 1e-9


class TestEndToEndNonPow2:
    @pytest.mark.parametrize("num_ranks", [3, 6, 12])
    def test_sort_last_system(self, num_ranks):
        cfg = RunConfig(
            dataset="engine_low",
            method="bsbrc",
            num_ranks=num_ranks,
            image_size=48,
            volume_shape=(32, 32, 16),
        )
        result = SortLastSystem(cfg).run()
        assert result.final_image.max_abs_diff(result.reference_image()) < 1e-9
