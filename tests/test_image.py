"""Tests for the SubImage container and the sequential reference oracle."""

import numpy as np
import pytest

from repro.errors import CompositingError, RenderError
from repro.render.image import SubImage
from repro.render.reference import composite_sequential, luminance
from repro.types import Rect


def sparse_image(rng, h=10, w=12, density=0.3):
    mask = rng.random((h, w)) < density
    opacity = np.where(mask, rng.uniform(0.1, 0.9, (h, w)), 0.0)
    intensity = np.where(mask, rng.uniform(0.1, 1.0, (h, w)), 0.0)
    return SubImage(intensity=intensity, opacity=opacity)


class TestSubImage:
    def test_blank(self):
        image = SubImage.blank(5, 7)
        assert image.shape == (5, 7)
        assert image.nonblank_count() == 0
        assert image.sparsity() == 1.0
        assert image.bounding_rect().is_empty

    def test_blank_bad_size(self):
        with pytest.raises(RenderError):
            SubImage.blank(0, 5)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(RenderError):
            SubImage(intensity=np.zeros((2, 2)), opacity=np.zeros((3, 3)))

    def test_1d_rejected(self):
        with pytest.raises(RenderError):
            SubImage(intensity=np.zeros(4), opacity=np.zeros(4))

    def test_copy_is_deep(self):
        image = SubImage.blank(3, 3)
        clone = image.copy()
        clone.intensity[0, 0] = 1.0
        assert image.intensity[0, 0] == 0.0

    def test_float32_input_upcast(self):
        image = SubImage(
            intensity=np.zeros((2, 2), dtype=np.float32),
            opacity=np.zeros((2, 2), dtype=np.float32),
        )
        assert image.intensity.dtype == np.float64

    def test_masks_and_counts(self):
        image = SubImage.blank(4, 4)
        image.opacity[1, 2] = 0.5
        image.intensity[3, 0] = 0.2
        assert image.nonblank_count() == 2
        assert image.bounding_rect() == Rect(1, 0, 4, 3)

    def test_allclose_and_diff(self):
        rng = np.random.default_rng(0)
        a = sparse_image(rng)
        b = a.copy()
        assert a.allclose(b)
        assert a.max_abs_diff(b) == 0.0
        b.intensity[0, 0] += 0.5
        assert not a.allclose(b)
        assert a.max_abs_diff(b) == pytest.approx(0.5)

    def test_max_abs_diff_shape_mismatch(self):
        with pytest.raises(RenderError):
            SubImage.blank(2, 2).max_abs_diff(SubImage.blank(2, 3))

    def test_repr_contains_counts(self):
        assert "nonblank=0/4" in repr(SubImage.blank(2, 2))


class TestCompositeSequential:
    def test_single_image_identity(self):
        rng = np.random.default_rng(1)
        image = sparse_image(rng)
        out = composite_sequential([image], [0])
        assert out.allclose(image)
        # inputs not mutated, not aliased
        out.intensity[0, 0] = 123.0
        assert image.intensity[0, 0] != 123.0

    def test_order_matters(self):
        a = SubImage.blank(1, 1)
        a.intensity[:] = 0.9
        a.opacity[:] = 0.9
        b = SubImage.blank(1, 1)
        b.intensity[:] = 0.1
        b.opacity[:] = 0.5
        ab = composite_sequential([a, b], [0, 1])
        ba = composite_sequential([a, b], [1, 0])
        assert ab.intensity[0, 0] != ba.intensity[0, 0]

    def test_blank_layers_are_transparent(self):
        rng = np.random.default_rng(2)
        image = sparse_image(rng)
        blanks = [SubImage.blank(*image.shape) for _ in range(3)]
        out = composite_sequential([image] + blanks, [1, 0, 2, 3])
        assert out.allclose(image)

    def test_non_permutation_rejected(self):
        images = [SubImage.blank(2, 2), SubImage.blank(2, 2)]
        with pytest.raises(CompositingError):
            composite_sequential(images, [0, 0])

    def test_wrong_length_rejected(self):
        with pytest.raises(CompositingError):
            composite_sequential([SubImage.blank(2, 2)], [0, 1])

    def test_mixed_shapes_rejected(self):
        with pytest.raises(CompositingError):
            composite_sequential([SubImage.blank(2, 2), SubImage.blank(3, 3)], [0, 1])

    def test_empty_list_rejected(self):
        with pytest.raises(CompositingError):
            composite_sequential([], [])

    def test_associativity_grouping_equivalence(self):
        """Folding in tree groups equals the linear fold (binary swap's
        correctness argument in miniature)."""
        rng = np.random.default_rng(3)
        images = [sparse_image(rng) for _ in range(4)]
        linear = composite_sequential(images, [0, 1, 2, 3])
        left = composite_sequential(images[:2], [0, 1])
        right = composite_sequential(images[2:], [0, 1])
        grouped = composite_sequential([left, right], [0, 1])
        assert grouped.max_abs_diff(linear) < 1e-12


class TestLuminance:
    def test_zero_background(self):
        rng = np.random.default_rng(4)
        image = sparse_image(rng)
        assert np.array_equal(luminance(image), image.intensity)

    def test_background_shows_through(self):
        image = SubImage.blank(2, 2)
        image.opacity[0, 0] = 1.0
        out = luminance(image, background=1.0)
        assert out[0, 0] == 0.0  # fully covered by (emissive black) pixel
        assert out[1, 1] == 1.0  # background visible
