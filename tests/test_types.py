"""Unit tests for repro.types (Rect and Extent3)."""

import numpy as np
import pytest

from repro.types import Extent3, Rect


class TestRectBasics:
    def test_dimensions(self):
        r = Rect(1, 2, 4, 7)
        assert r.height == 3
        assert r.width == 5
        assert r.area == 15
        assert not r.is_empty

    def test_empty_canonical(self):
        assert Rect.empty().is_empty
        assert Rect.empty().area == 0

    def test_negative_extent_is_empty(self):
        assert Rect(5, 5, 3, 9).is_empty
        assert Rect(5, 5, 9, 3).is_empty

    def test_normalized_collapses_empty(self):
        assert Rect(5, 5, 3, 9).normalized() == Rect.empty()

    def test_normalized_keeps_nonempty(self):
        r = Rect(0, 0, 2, 2)
        assert r.normalized() == r

    def test_full(self):
        r = Rect.full(10, 20)
        assert (r.y0, r.x0, r.y1, r.x1) == (0, 0, 10, 20)
        assert r.area == 200

    def test_height_width_clamped_nonnegative(self):
        r = Rect(5, 5, 1, 1)
        assert r.height == 0
        assert r.width == 0


class TestRectSetOps:
    def test_intersect_overlap(self):
        a = Rect(0, 0, 4, 4)
        b = Rect(2, 2, 6, 6)
        assert a.intersect(b) == Rect(2, 2, 4, 4)

    def test_intersect_disjoint_is_empty(self):
        a = Rect(0, 0, 2, 2)
        b = Rect(3, 3, 5, 5)
        assert a.intersect(b).is_empty

    def test_intersect_commutes(self):
        a = Rect(0, 1, 5, 6)
        b = Rect(2, 0, 7, 4)
        assert a.intersect(b) == b.intersect(a)

    def test_union_covers_both(self):
        a = Rect(0, 0, 2, 2)
        b = Rect(5, 5, 6, 8)
        u = a.union(b)
        assert u.contains(a) and u.contains(b)
        assert u == Rect(0, 0, 6, 8)

    def test_union_with_empty_is_identity(self):
        a = Rect(1, 1, 3, 3)
        assert a.union(Rect.empty()) == a
        assert Rect.empty().union(a) == a

    def test_contains_empty_always(self):
        assert Rect(0, 0, 1, 1).contains(Rect.empty())
        assert Rect.empty().contains(Rect.empty())

    def test_empty_contains_nothing_nonempty(self):
        assert not Rect.empty().contains(Rect(0, 0, 1, 1))

    def test_contains_point(self):
        r = Rect(1, 1, 3, 3)
        assert r.contains_point(1, 1)
        assert r.contains_point(2, 2)
        assert not r.contains_point(3, 3)  # half-open
        assert not r.contains_point(0, 1)


class TestRectSplit:
    def test_split_rows(self):
        low, high = Rect(0, 0, 10, 4).split(0)
        assert low == Rect(0, 0, 5, 4)
        assert high == Rect(5, 0, 10, 4)

    def test_split_cols(self):
        low, high = Rect(0, 0, 4, 10).split(1)
        assert low == Rect(0, 0, 4, 5)
        assert high == Rect(0, 5, 4, 10)

    def test_split_odd_size(self):
        low, high = Rect(0, 0, 5, 2).split(0)
        assert low.area + high.area == 10
        assert low.height == 2 and high.height == 3

    def test_split_bad_axis(self):
        with pytest.raises(ValueError):
            Rect(0, 0, 4, 4).split(2)

    def test_split_partition_is_exact(self):
        r = Rect(3, 7, 12, 20)
        for axis in (0, 1):
            low, high = r.split(axis)
            assert low.area + high.area == r.area
            assert low.intersect(high).is_empty
            assert r.contains(low) and r.contains(high)

    def test_parts_partition_bound(self):
        """A bounding rect cut by a region's centerline splits exactly."""
        bound = Rect(2, 3, 11, 9)
        region = Rect(0, 0, 12, 10)
        for axis in (0, 1):
            low, high = (bound.intersect(half) for half in region.split(axis))
            assert low.area + high.area == bound.area
            assert low.intersect(high).is_empty

    def test_parts_inside_their_halves(self):
        bound = Rect(0, 0, 10, 10)
        region = Rect(0, 0, 10, 10)
        for half in region.split(1):
            assert half.contains(bound.intersect(half))


class TestRectSerialization:
    def test_int16_roundtrip(self):
        r = Rect(1, 2, 300, 400)
        assert Rect.from_int16_array(r.as_int16_array()) == r

    def test_int16_empty_roundtrip(self):
        assert Rect.from_int16_array(Rect.empty().as_int16_array()).is_empty

    def test_int16_bad_shape(self):
        with pytest.raises(ValueError):
            Rect.from_int16_array(np.zeros(3, dtype=np.int16))

    def test_slices_index_correct_block(self):
        arr = np.arange(20).reshape(4, 5)
        rows, cols = Rect(1, 2, 3, 4).slices()
        block = arr[rows, cols]
        assert block.tolist() == [[7, 8], [12, 13]]

    def test_shifted(self):
        assert Rect(1, 1, 2, 2).shifted(3, 4) == Rect(4, 5, 5, 6)

    def test_shifted_empty_stays_empty(self):
        assert Rect.empty().shifted(5, 5).is_empty


class TestExtent3:
    def test_full(self):
        e = Extent3.full((4, 5, 6))
        assert e.shape == (4, 5, 6)
        assert e.num_voxels == 120
        assert not e.is_empty

    def test_center(self):
        e = Extent3(0, 0, 0, 4, 6, 8)
        assert np.allclose(e.center, [2, 3, 4])

    def test_split_each_axis(self):
        e = Extent3.full((8, 8, 8))
        for axis in range(3):
            a, b = e.split(axis)
            assert a.num_voxels + b.num_voxels == e.num_voxels
            assert a.shape[axis] == 4 and b.shape[axis] == 4

    def test_split_odd(self):
        e = Extent3.full((5, 4, 4))
        a, b = e.split(0)
        assert a.shape[0] == 2 and b.shape[0] == 3

    def test_split_too_thin(self):
        e = Extent3.full((1, 4, 4))
        with pytest.raises(ValueError):
            e.split(0)

    def test_corners_count_and_bounds(self):
        e = Extent3(1, 2, 3, 4, 6, 9)
        corners = e.corners()
        assert corners.shape == (8, 3)
        assert corners.min(axis=0).tolist() == [1, 2, 3]
        assert corners.max(axis=0).tolist() == [4, 6, 9]

    def test_slices(self):
        data = np.arange(27).reshape(3, 3, 3)
        e = Extent3(0, 1, 2, 2, 3, 3)
        sx, sy, sz = e.slices()
        assert data[sx, sy, sz].shape == (2, 2, 1)

    def test_empty(self):
        assert Extent3(0, 0, 0, 0, 5, 5).is_empty
