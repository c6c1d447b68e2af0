"""Tests for the blank/non-blank run-length codec."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import _rle_decode_mask_loop, _rle_encode_mask_loop
from repro.compositing.rle import MAX_RUN, count_nonblank, rle_decode_mask, rle_encode_mask
from repro.errors import WireFormatError


class TestEncodeBasics:
    def test_empty_mask(self):
        codes = rle_encode_mask(np.zeros(0, dtype=bool))
        assert codes.size == 0
        assert rle_decode_mask(codes, 0).size == 0

    def test_all_blank(self):
        codes = rle_encode_mask(np.zeros(10, dtype=bool))
        assert codes.tolist() == [10]

    def test_all_nonblank(self):
        codes = rle_encode_mask(np.ones(10, dtype=bool))
        assert codes.tolist() == [0, 10]

    def test_alternating(self):
        mask = np.array([False, True, False, True])
        assert rle_encode_mask(mask).tolist() == [1, 1, 1, 1]

    def test_leading_nonblank_gets_zero_blank_run(self):
        mask = np.array([True, True, False])
        assert rle_encode_mask(mask).tolist() == [0, 2, 1]

    def test_paper_figure5_style(self):
        # A sparse scanline: blanks, a run of foreground, blanks.
        mask = np.array([False] * 5 + [True] * 3 + [False] * 4)
        assert rle_encode_mask(mask).tolist() == [5, 3, 4]

    def test_2d_mask_rejected(self):
        with pytest.raises(WireFormatError):
            rle_encode_mask(np.zeros((2, 2), dtype=bool))


class TestLongRuns:
    def test_long_blank_run_split(self):
        n = MAX_RUN + 100
        codes = rle_encode_mask(np.zeros(n, dtype=bool))
        assert codes.tolist() == [MAX_RUN, 0, 100]
        assert rle_decode_mask(codes, n).sum() == 0

    def test_long_nonblank_run_split(self):
        n = MAX_RUN + 7
        codes = rle_encode_mask(np.ones(n, dtype=bool))
        assert codes.tolist() == [0, MAX_RUN, 0, 7]
        assert rle_decode_mask(codes, n).sum() == n

    def test_double_length_run(self):
        n = 2 * MAX_RUN
        codes = rle_encode_mask(np.zeros(n, dtype=bool))
        assert rle_decode_mask(codes, n).sum() == 0

    def test_exact_max_run_not_split(self):
        codes = rle_encode_mask(np.zeros(MAX_RUN, dtype=bool))
        assert codes.tolist() == [MAX_RUN]


class TestDecodeValidation:
    def test_sum_mismatch_rejected(self):
        with pytest.raises(WireFormatError):
            rle_decode_mask(np.array([3], dtype=np.uint16), 5)

    def test_2d_codes_rejected(self):
        with pytest.raises(WireFormatError):
            rle_decode_mask(np.zeros((1, 1), dtype=np.uint16), 0)


class TestCountNonblank:
    def test_counts_odd_positions(self):
        codes = np.array([5, 3, 4, 2], dtype=np.uint16)
        assert count_nonblank(codes) == 5

    def test_empty(self):
        assert count_nonblank(np.empty(0, dtype=np.uint16)) == 0

    def test_matches_mask_sum(self):
        rng = np.random.default_rng(3)
        mask = rng.random(1000) < 0.2
        assert count_nonblank(rle_encode_mask(mask)) == int(mask.sum())


class TestRoundtripProperties:
    @given(st.lists(st.booleans(), max_size=300))
    @settings(max_examples=200)
    def test_roundtrip(self, bits):
        mask = np.asarray(bits, dtype=bool)
        codes = rle_encode_mask(mask)
        assert np.array_equal(rle_decode_mask(codes, mask.size), mask)

    @given(st.lists(st.booleans(), min_size=1, max_size=300))
    @settings(max_examples=200)
    def test_codes_alternate_with_no_internal_zeros(self, bits):
        """Apart from a possible leading zero and MAX_RUN splits, runs are
        positive — the encoding is canonical/minimal."""
        mask = np.asarray(bits, dtype=bool)
        codes = rle_encode_mask(mask).tolist()
        assert sum(codes) == mask.size
        # No zero after the first position for inputs shorter than MAX_RUN.
        assert all(c > 0 for c in codes[1:])

    @given(st.integers(1, 500), st.integers(0, 499))
    def test_single_foreground_block(self, n, start):
        start = start % n
        length = min(n - start, 17)
        mask = np.zeros(n, dtype=bool)
        mask[start : start + length] = True
        codes = rle_encode_mask(mask)
        assert count_nonblank(codes) == length
        assert np.array_equal(rle_decode_mask(codes, n), mask)

    @given(st.lists(st.booleans(), max_size=200))
    def test_wire_size_bound(self, bits):
        """Code count never exceeds pixel count + 1 (the worst alternating
        case the paper mentions: equal to explicit coordinates)."""
        mask = np.asarray(bits, dtype=bool)
        codes = rle_encode_mask(mask)
        assert codes.size <= mask.size + 1


def _run_lengths_to_mask(lengths):
    """Build a mask from alternating blank/non-blank run lengths."""
    total = int(sum(lengths))
    mask = np.zeros(total, dtype=bool)
    pos = 0
    for i, run in enumerate(lengths):
        if i % 2 == 1:
            mask[pos : pos + run] = True
        pos += run
    return mask


class TestLoopOracleEquivalence:
    """The vectorized codecs must emit *byte-identical* wire codes to the
    original loop implementations — the wire format is frozen."""

    CASES = [
        np.zeros(0, dtype=bool),
        np.zeros(1, dtype=bool),
        np.ones(1, dtype=bool),
        np.zeros(77777, dtype=bool),  # all-blank, > MAX_RUN, packbits path
        np.ones(77777, dtype=bool),  # all-nonblank, > MAX_RUN, packbits path
        np.ones(MAX_RUN, dtype=bool),
        np.zeros(MAX_RUN + 1, dtype=bool),
        _run_lengths_to_mask([MAX_RUN + 5, 2 * MAX_RUN, 3]),
        _run_lengths_to_mask([0, 3 * MAX_RUN + 1, MAX_RUN, 7]),
        _run_lengths_to_mask([1] * 9001),  # dense alternation, packbits path
    ]

    @pytest.mark.parametrize("mask", CASES, ids=lambda m: f"n{m.size}")
    def test_encode_byte_identical(self, mask):
        assert np.array_equal(rle_encode_mask(mask), _rle_encode_mask_loop(mask))

    @pytest.mark.parametrize("mask", CASES, ids=lambda m: f"n{m.size}")
    def test_decode_matches_loop(self, mask):
        codes = _rle_encode_mask_loop(mask)
        assert np.array_equal(
            rle_decode_mask(codes, mask.size), _rle_decode_mask_loop(codes, mask.size)
        )
        assert np.array_equal(rle_decode_mask(codes, mask.size), mask)

    @given(st.lists(st.booleans(), max_size=400))
    @settings(max_examples=200)
    def test_encode_byte_identical_fuzz(self, bits):
        mask = np.asarray(bits, dtype=bool)
        assert np.array_equal(rle_encode_mask(mask), _rle_encode_mask_loop(mask))

    @given(
        st.lists(st.integers(0, 3 * MAX_RUN), min_size=1, max_size=6),
        st.integers(0, 1),
    )
    @settings(max_examples=60)
    def test_long_run_fuzz(self, lengths, leading_blank):
        """Random alternating runs, many above the uint16 split point."""
        if not leading_blank:
            lengths = [0] + lengths
        mask = _run_lengths_to_mask(lengths)
        codes = rle_encode_mask(mask)
        assert np.array_equal(codes, _rle_encode_mask_loop(mask))
        assert np.array_equal(rle_decode_mask(codes, mask.size), mask)

    @given(st.integers(4097, 60000), st.floats(0.001, 0.999), st.integers(0, 2**31))
    @settings(max_examples=40)
    def test_large_mask_fuzz(self, n, density, seed):
        """Masks above the packbits-path threshold stay byte-identical."""
        rng = np.random.default_rng(seed)
        mask = rng.random(n) < density
        codes = rle_encode_mask(mask)
        assert np.array_equal(codes, _rle_encode_mask_loop(mask))
        assert np.array_equal(rle_decode_mask(codes, n), mask)
