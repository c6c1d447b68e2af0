"""Tests for the byte-level message formats (pack/unpack + accounting)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compositing.wire import (
    pack_bs,
    pack_bsbr,
    pack_bsbrc,
    pack_bslc,
    pack_pixels,
    unpack_bs,
    unpack_bsbr,
    unpack_bsbrc,
    unpack_bslc,
    unpack_pixels,
)
from repro.errors import WireFormatError
from repro.types import PIXEL_BYTES, RECT_INFO_BYTES, RLE_CODE_BYTES, Rect


def sparse_planes(rng, h=12, w=10, density=0.3):
    mask = rng.random((h, w)) < density
    opacity = np.where(mask, rng.uniform(0.1, 0.9, (h, w)), 0.0)
    intensity = np.where(mask, rng.uniform(0.1, 1.0, (h, w)), 0.0)
    return intensity, opacity


@pytest.fixture
def planes():
    return sparse_planes(np.random.default_rng(7))


class TestPixelsRect:
    def test_roundtrip(self, planes):
        intensity, opacity = planes
        rect = Rect(2, 1, 7, 9)
        rows, cols = rect.slices()
        msg = pack_pixels(intensity[rows, cols], opacity[rows, cols])
        assert len(msg.buffer) == msg.accounted_bytes == rect.area * PIXEL_BYTES
        out_i, out_a = unpack_pixels(msg.buffer, rect.area)
        assert np.array_equal(out_i, intensity[rows, cols].ravel())
        assert np.array_equal(out_a, opacity[rows, cols].ravel())

    def test_wrong_length_rejected(self):
        with pytest.raises(WireFormatError):
            unpack_pixels(b"\x00" * 8, 1)


class TestBS:
    def test_roundtrip(self, planes):
        intensity, opacity = planes
        half = Rect(0, 0, 6, 10)
        msg = pack_bs(intensity, opacity, half)
        assert msg.accounted_bytes == half.area * PIXEL_BYTES
        assert len(msg.buffer) == msg.accounted_bytes
        out_i, out_a = unpack_bs(msg.buffer, half)
        assert np.array_equal(out_i, intensity[:6])
        assert np.array_equal(out_a, opacity[:6])

    def test_bs_always_full_size_even_when_blank(self):
        intensity = np.zeros((8, 8))
        opacity = np.zeros((8, 8))
        msg = pack_bs(intensity, opacity, Rect(0, 0, 4, 8))
        assert msg.accounted_bytes == 32 * PIXEL_BYTES


class TestBSBR:
    def test_roundtrip_nonempty(self, planes):
        intensity, opacity = planes
        rect = Rect(3, 2, 8, 7)
        msg = pack_bsbr(intensity, opacity, rect)
        assert msg.accounted_bytes == RECT_INFO_BYTES + rect.area * PIXEL_BYTES
        got_rect, out_i, out_a = unpack_bsbr(msg.buffer)
        assert got_rect == rect
        rows, cols = rect.slices()
        assert np.array_equal(out_i, intensity[rows, cols])
        assert np.array_equal(out_a, opacity[rows, cols])

    def test_empty_rect_is_8_bytes(self, planes):
        intensity, opacity = planes
        msg = pack_bsbr(intensity, opacity, Rect.empty())
        assert msg.accounted_bytes == RECT_INFO_BYTES
        assert len(msg.buffer) == RECT_INFO_BYTES
        rect, out_i, out_a = unpack_bsbr(msg.buffer)
        assert rect.is_empty and out_i is None and out_a is None

    def test_truncated_rejected(self):
        with pytest.raises(WireFormatError):
            unpack_bsbr(b"\x00" * 4)

    def test_trailing_bytes_on_empty_rejected(self, planes):
        intensity, opacity = planes
        msg = pack_bsbr(intensity, opacity, Rect.empty())
        with pytest.raises(WireFormatError):
            unpack_bsbr(msg.buffer + b"\x00")


class TestBSLC:
    def test_roundtrip(self, planes):
        intensity, opacity = planes
        flat_i, flat_a = intensity.ravel(), opacity.ravel()
        indices = np.arange(0, flat_i.size, 2, dtype=np.int64)
        msg = pack_bslc(flat_i, flat_a, indices)
        positions, out_i, out_a = unpack_bslc(msg.buffer, indices.size)
        # Positions index the sent sequence; values must match the source.
        src = indices[positions]
        assert np.array_equal(out_i, flat_i[src])
        assert np.array_equal(out_a, flat_a[src])
        # Every non-blank sent pixel is present.
        mask = (flat_i[indices] != 0) | (flat_a[indices] != 0)
        assert positions.size == int(mask.sum())

    def test_accounting_formula(self, planes):
        intensity, opacity = planes
        flat_i, flat_a = intensity.ravel(), opacity.ravel()
        indices = np.arange(flat_i.size, dtype=np.int64)
        msg = pack_bslc(flat_i, flat_a, indices)
        ncodes = int.from_bytes(msg.buffer[:4], "little")
        nonblank = int(((flat_i != 0) | (flat_a != 0)).sum())
        assert msg.accounted_bytes == ncodes * RLE_CODE_BYTES + nonblank * PIXEL_BYTES

    def test_all_blank_message_is_just_codes(self):
        flat = np.zeros(50)
        msg = pack_bslc(flat, flat, np.arange(50, dtype=np.int64))
        positions, out_i, out_a = unpack_bslc(msg.buffer, 50)
        assert positions.size == 0
        assert msg.accounted_bytes == RLE_CODE_BYTES  # single blank run

    def test_wrong_seq_len_rejected(self, planes):
        intensity, opacity = planes
        msg = pack_bslc(intensity.ravel(), opacity.ravel(), np.arange(20, dtype=np.int64))
        with pytest.raises(WireFormatError):
            unpack_bslc(msg.buffer, 21)

    def test_truncated_rejected(self):
        with pytest.raises(WireFormatError):
            unpack_bslc(b"\x01", 0)


class TestBSBRC:
    def test_roundtrip(self, planes):
        intensity, opacity = planes
        rect = Rect(1, 1, 9, 8)
        msg = pack_bsbrc(intensity, opacity, rect)
        got_rect, got_mask, out_i, out_a = unpack_bsbrc(msg.buffer)
        assert got_rect == rect
        rows, cols = rect.slices()
        block_i = intensity[rows, cols].ravel()
        block_a = opacity[rows, cols].ravel()
        mask = (block_i != 0) | (block_a != 0)
        assert np.array_equal(got_mask, mask.reshape(rect.height, rect.width))
        assert np.array_equal(out_i, block_i[mask])
        assert np.array_equal(out_a, block_a[mask])

    def test_accounting_formula(self, planes):
        intensity, opacity = planes
        rect = Rect(0, 0, 12, 10)
        msg = pack_bsbrc(intensity, opacity, rect)
        ncodes = int.from_bytes(msg.buffer[8:12], "little")
        rows, cols = rect.slices()
        nonblank = int(((intensity[rows, cols] != 0) | (opacity[rows, cols] != 0)).sum())
        assert msg.accounted_bytes == (
            RECT_INFO_BYTES + ncodes * RLE_CODE_BYTES + nonblank * PIXEL_BYTES
        )

    def test_empty_rect(self, planes):
        intensity, opacity = planes
        msg = pack_bsbrc(intensity, opacity, Rect.empty())
        assert msg.accounted_bytes == RECT_INFO_BYTES
        rect, mask, out_i, out_a = unpack_bsbrc(msg.buffer)
        assert rect.is_empty and mask is None

    def test_never_larger_than_bsbr_by_more_than_codes(self, planes):
        """BSBRC beats BSBR whenever the rect has blanks; worst case it
        adds only the code bytes (paper §3.4 discussion)."""
        intensity, opacity = planes
        rect = Rect(0, 0, 12, 10)
        brc = pack_bsbrc(intensity, opacity, rect)
        br = pack_bsbr(intensity, opacity, rect)
        ncodes = int.from_bytes(brc.buffer[8:12], "little")
        assert brc.accounted_bytes <= br.accounted_bytes + ncodes * RLE_CODE_BYTES

    def test_truncated_rejected(self):
        rect_bytes = Rect(0, 0, 2, 2).as_int16_array().astype("<i2").tobytes()
        with pytest.raises(WireFormatError):
            unpack_bsbrc(rect_bytes + b"\x01")


class TestWireProperties:
    @given(
        density=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**16),
        h=st.integers(1, 16),
        w=st.integers(1, 16),
    )
    @settings(max_examples=80)
    def test_bsbrc_roundtrip_random(self, density, seed, h, w):
        rng = np.random.default_rng(seed)
        intensity, opacity = sparse_planes(rng, h, w, density)
        rect = Rect(0, 0, h, w)
        msg = pack_bsbrc(intensity, opacity, rect)
        got_rect, got_mask, out_i, out_a = unpack_bsbrc(msg.buffer)
        assert got_rect == rect
        mask = (intensity != 0) | (opacity != 0)
        assert np.array_equal(got_mask, mask)

    @given(seed=st.integers(0, 2**16), density=st.floats(0.0, 1.0))
    @settings(max_examples=80)
    def test_sparse_formats_never_beat_dense_on_density_one(self, seed, density):
        """At full density the BSBRC message equals BSBR + code overhead;
        at low density it is strictly smaller."""
        rng = np.random.default_rng(seed)
        intensity, opacity = sparse_planes(rng, 10, 10, density)
        rect = Rect(0, 0, 10, 10)
        brc = pack_bsbrc(intensity, opacity, rect).accounted_bytes
        br = pack_bsbr(intensity, opacity, rect).accounted_bytes
        nonblank = int(((intensity != 0) | (opacity != 0)).sum())
        if nonblank < 40:  # sparse enough that pixel savings exceed codes
            assert brc <= br
