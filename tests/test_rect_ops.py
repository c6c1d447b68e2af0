"""Tests for bounding-rectangle machinery (compositing.rect)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compositing.rect import find_bounding_rect
from repro.types import Rect


def planes_with_points(h, w, points):
    intensity = np.zeros((h, w))
    opacity = np.zeros((h, w))
    for y, x in points:
        opacity[y, x] = 0.5
        intensity[y, x] = 0.5
    return intensity, opacity


class TestFindBoundingRect:
    def test_empty_image(self):
        intensity = np.zeros((6, 6))
        assert find_bounding_rect(intensity, intensity).is_empty

    def test_single_pixel(self):
        intensity, opacity = planes_with_points(6, 6, [(2, 3)])
        assert find_bounding_rect(intensity, opacity) == Rect(2, 3, 3, 4)

    def test_two_corners(self):
        intensity, opacity = planes_with_points(8, 9, [(1, 1), (6, 7)])
        assert find_bounding_rect(intensity, opacity) == Rect(1, 1, 7, 8)

    def test_region_clips_search(self):
        intensity, opacity = planes_with_points(8, 8, [(0, 0), (7, 7)])
        rect = find_bounding_rect(intensity, opacity, Rect(0, 0, 4, 4))
        assert rect == Rect(0, 0, 1, 1)

    def test_region_with_no_foreground(self):
        intensity, opacity = planes_with_points(8, 8, [(0, 0)])
        assert find_bounding_rect(intensity, opacity, Rect(4, 4, 8, 8)).is_empty

    def test_empty_region(self):
        intensity, opacity = planes_with_points(8, 8, [(0, 0)])
        assert find_bounding_rect(intensity, opacity, Rect.empty()).is_empty

    def test_intensity_only_pixel_counts(self):
        intensity = np.zeros((4, 4))
        opacity = np.zeros((4, 4))
        intensity[1, 2] = 0.3  # non-blank by intensity alone
        assert find_bounding_rect(intensity, opacity) == Rect(1, 2, 2, 3)

    def test_region_outside_image_clipped(self):
        intensity, opacity = planes_with_points(4, 4, [(3, 3)])
        rect = find_bounding_rect(intensity, opacity, Rect(0, 0, 100, 100))
        assert rect == Rect(3, 3, 4, 4)

    @given(
        seed=st.integers(0, 2**16),
        h=st.integers(1, 20),
        w=st.integers(1, 20),
        density=st.floats(0.0, 0.6),
    )
    @settings(max_examples=100)
    def test_rect_is_tight_cover(self, seed, h, w, density):
        rng = np.random.default_rng(seed)
        mask = rng.random((h, w)) < density
        opacity = np.where(mask, 0.5, 0.0)
        rect = find_bounding_rect(opacity, opacity)
        if not mask.any():
            assert rect.is_empty
            return
        ys, xs = np.nonzero(mask)
        # Covers everything...
        assert rect.y0 <= ys.min() and rect.y1 > ys.max()
        assert rect.x0 <= xs.min() and rect.x1 > xs.max()
        # ...tightly: each edge touches a foreground pixel.
        assert rect == Rect(ys.min(), xs.min(), ys.max() + 1, xs.max() + 1)
