"""End-to-end correctness of every compositing method.

The master invariant: for any dataset, processor count and viewpoint,
assembling the per-rank owned portions after compositing must equal the
sequential depth-order composite of the rendered subimages.
"""

import numpy as np
import pytest

from conftest import SMALL_IMAGE, random_subimages, rendered_workload, reference_image
from repro.cluster.model import IDEALIZED, SP2
from repro.compositing.registry import available_methods, make_compositor
from repro.errors import CompositingError, ConfigurationError
from repro.pipeline.system import assemble_final, run_compositing, validate_ownership
from repro.render.reference import composite_sequential
from repro.volume.partition import depth_order, recursive_bisect

ALL_METHODS = tuple(available_methods())
PARTITION_METHODS = tuple(m for m in ALL_METHODS if m != "tree")


def run_and_assemble(subimages, method, plan, camera, **options):
    run = run_compositing(
        list(subimages), method, plan, camera.view_dir, SP2, **options
    )
    final = assemble_final(run.outcomes, *subimages[0].shape)
    return final, run


class TestAgainstSequentialReference:
    @pytest.mark.parametrize("method", ALL_METHODS)
    @pytest.mark.parametrize("num_ranks", [2, 4, 8, 16])
    def test_engine_matches_reference(self, method, num_ranks):
        subimages, plan, camera = rendered_workload("engine_low", num_ranks)
        reference = reference_image("engine_low", num_ranks)
        final, _ = run_and_assemble(subimages, method, plan, camera)
        assert final.max_abs_diff(reference) < 1e-9

    @pytest.mark.parametrize("method", ALL_METHODS)
    @pytest.mark.parametrize("dataset", ["engine_high", "head", "cube", "sphere"])
    def test_all_datasets_match_reference(self, method, dataset):
        subimages, plan, camera = rendered_workload(dataset, 8)
        reference = reference_image(dataset, 8)
        final, _ = run_and_assemble(subimages, method, plan, camera)
        assert final.max_abs_diff(reference) < 1e-9

    @pytest.mark.parametrize("method", ALL_METHODS)
    @pytest.mark.parametrize(
        "rotation", [(0.0, 0.0, 0.0), (90.0, 0.0, 0.0), (0.0, 35.0, 0.0), (25.0, 35.0, 10.0)]
    )
    def test_viewpoints_match_reference(self, method, rotation):
        subimages, plan, camera = rendered_workload("engine_low", 8, SMALL_IMAGE, rotation)
        reference = reference_image("engine_low", 8, SMALL_IMAGE, rotation)
        final, _ = run_and_assemble(subimages, method, plan, camera)
        assert final.max_abs_diff(reference) < 1e-9

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_random_images_match_reference(self, method, rng):
        """Protocol correctness is geometry-free: random sparse images
        composited in the plan-implied order must match too."""
        num_ranks = 8
        plan = recursive_bisect((32, 32, 16), num_ranks)
        view = np.array([0.37, -0.61, 0.70])
        images = random_subimages(rng, num_ranks, 40, 40)
        reference = composite_sequential(images, depth_order(plan, view))
        run = run_compositing(images, method, plan, view, IDEALIZED)
        final = assemble_final(run.outcomes, 40, 40)
        assert final.max_abs_diff(reference) < 1e-9

    @pytest.mark.parametrize("method", ["bs", "bsbr", "bslc", "bsbrc"])
    def test_single_blank_rank_tolerated(self, method, rng):
        """One rank rendering nothing (empty block footprint) must not
        break any method — its rects are empty, its runs all blank."""
        num_ranks = 4
        plan = recursive_bisect((32, 32, 16), num_ranks)
        view = np.array([0.1, 0.2, -0.9])
        images = random_subimages(rng, num_ranks, 32, 32)
        from repro.render.image import SubImage

        images[2] = SubImage.blank(32, 32)
        reference = composite_sequential(images, depth_order(plan, view))
        run = run_compositing(images, method, plan, view, IDEALIZED)
        final = assemble_final(run.outcomes, 32, 32)
        assert final.max_abs_diff(reference) < 1e-9

    @pytest.mark.parametrize("method", ["bs", "bsbr", "bslc", "bsbrc"])
    def test_all_blank_everywhere(self, method):
        from repro.render.image import SubImage

        num_ranks = 4
        plan = recursive_bisect((32, 32, 16), num_ranks)
        images = [SubImage.blank(16, 16) for _ in range(num_ranks)]
        run = run_compositing(images, method, plan, np.array([0, 0, -1.0]), IDEALIZED)
        final = assemble_final(run.outcomes, 16, 16)
        assert final.nonblank_count() == 0


class TestOwnership:
    @pytest.mark.parametrize("method", PARTITION_METHODS)
    @pytest.mark.parametrize("num_ranks", [2, 8, 16])
    def test_ownership_partitions_image(self, method, num_ranks):
        subimages, plan, camera = rendered_workload("engine_low", num_ranks)
        _, run = run_and_assemble(subimages, method, plan, camera)
        validate_ownership(run.outcomes, *subimages[0].shape)

    def test_tree_root_owns_everything(self):
        subimages, plan, camera = rendered_workload("engine_low", 8)
        _, run = run_and_assemble(subimages, "tree", plan, camera)
        assert run.outcomes[0][0].part.rect == subimages[0].full_rect()
        for outcome in run.outcomes[1:]:
            assert outcome[0].part.rect.is_empty

    def test_validate_ownership_detects_overlap(self):
        subimages, plan, camera = rendered_workload("engine_low", 2)
        _, run = run_and_assemble(subimages, "bs", plan, camera)
        bad = [run.outcomes[0], run.outcomes[0]]  # same region twice
        with pytest.raises(CompositingError):
            validate_ownership(bad, *subimages[0].shape)

    def test_validate_ownership_detects_gap(self):
        subimages, plan, camera = rendered_workload("engine_low", 2)
        _, run = run_and_assemble(subimages, "bs", plan, camera)
        with pytest.raises(CompositingError):
            validate_ownership(run.outcomes[:1], *subimages[0].shape)


class TestInputsPreserved:
    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_inputs_not_mutated(self, method):
        subimages, plan, camera = rendered_workload("engine_low", 4)
        before = [(img.intensity.copy(), img.opacity.copy()) for img in subimages]
        run_and_assemble(subimages, method, plan, camera)
        for img, (bi, ba) in zip(subimages, before):
            assert np.array_equal(img.intensity, bi)
            assert np.array_equal(img.opacity, ba)


class TestMethodOptions:
    @pytest.mark.parametrize("policy", ["longest", "alternate", "rows"])
    @pytest.mark.parametrize("method", ["bs", "bsbr", "bsbrc"])
    def test_split_policies_all_correct(self, method, policy):
        subimages, plan, camera = rendered_workload("engine_low", 8)
        reference = reference_image("engine_low", 8)
        final, _ = run_and_assemble(
            subimages, method, plan, camera, split_policy=policy
        )
        assert final.max_abs_diff(reference) < 1e-9

    @pytest.mark.parametrize("section", [1, 7, 16, 64, 4096])
    def test_bslc_sections_all_correct(self, section):
        subimages, plan, camera = rendered_workload("engine_low", 8)
        reference = reference_image("engine_low", 8)
        final, _ = run_and_assemble(subimages, "bslc", plan, camera, section=section)
        assert final.max_abs_diff(reference) < 1e-9

    def test_bslc_invalid_section(self):
        from repro.compositing.schedule import SectionedSchedule

        with pytest.raises(ConfigurationError):
            SectionedSchedule(section=0)
        with pytest.raises(ConfigurationError):
            make_compositor("bslc", section=0)

    def test_plan_size_mismatch_rejected(self):
        subimages, plan, camera = rendered_workload("engine_low", 4)
        wrong_plan = recursive_bisect((32, 32, 16), 8)
        with pytest.raises(CompositingError):
            run_compositing(list(subimages), "bs", wrong_plan, camera.view_dir, SP2)
