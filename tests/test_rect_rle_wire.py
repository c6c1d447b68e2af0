"""The BSBRC message path is byte-identical to the loop run codecs.

``pack_bsbrc`` writes the rect info and the code count with
:mod:`struct` and ``unpack_bsbrc`` decodes to the rect's non-blank
mask; the bytes, the decoded pixels, every ``WireFormatError`` branch
and the ``rle.*``/``wire.*`` counters must be what the layout and the
loop codecs in ``tests/oracles.py`` imply.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest

from oracles import _rle_decode_mask_loop, _rle_encode_mask_loop
from repro import perf
from repro.compositing.rle import MAX_RUN
from repro.compositing.wire import pack_bsbrc, unpack_bsbrc
from repro.errors import WireFormatError
from repro.types import PIXEL_BYTES, RECT_INFO_BYTES, RLE_CODE_BYTES, Rect

SIZES = [(1, 1), (1, 9), (7, 1), (3, 4), (16, 16), (17, 33), (64, 64)]
FILLS = ["empty", "one", "half", "full"]
#: Counters one message may move.
COUNTERS = (
    "rle.encode_calls",
    "rle.codes",
    "rle.decode_calls",
    "wire.packed_pixel_bytes",
    "wire.unpacked_pixel_bytes",
)


def planes_with(rect: Rect, fill: str, seed: int = 0, margin: int = 3):
    """Frame planes whose ``rect`` block has the given fill; the margin
    around it is foreground, so only the rect's pixels can ship."""
    rng = np.random.default_rng(seed)
    height, width = rect.y1 + margin, rect.x1 + margin
    intensity = rng.uniform(0.1, 1.0, (height, width))
    opacity = rng.uniform(0.1, 0.9, (height, width))
    block = np.zeros((rect.height, rect.width), dtype=bool)
    if fill == "one":
        block[rng.integers(rect.height), rng.integers(rect.width)] = True
    elif fill == "half":
        block.ravel()[rng.permutation(block.size)[: block.size // 2]] = True
    elif fill == "full":
        block[:] = True
    rows, cols = rect.slices()
    intensity[rows, cols] = np.where(block, intensity[rows, cols], 0.0)
    opacity[rows, cols] = np.where(block, opacity[rows, cols], 0.0)
    return intensity, opacity, block


def expected_message(intensity, opacity, rect: Rect) -> tuple[bytes, np.ndarray]:
    """The BSBRC layout spelled out with the loop encoder."""
    rows, cols = rect.slices()
    block_i, block_a = intensity[rows, cols], opacity[rows, cols]
    mask = (block_i != 0.0) | (block_a != 0.0)
    codes = _rle_encode_mask_loop(mask.ravel())
    pixels = np.stack((block_i[mask], block_a[mask]), axis=1).astype("<f8")
    return (
        struct.pack("<4h", rect.y0, rect.x0, rect.y1, rect.x1)
        + struct.pack("<I", codes.size)
        + codes.astype("<u2").tobytes()
        + pixels.tobytes()
    ), codes


def counter_deltas(fn, *args):
    with perf.scope() as registry:
        result = fn(*args)
    return result, {name: registry.counter(name) for name in COUNTERS}


@pytest.mark.parametrize("fill", FILLS)
@pytest.mark.parametrize("size", SIZES, ids=[f"{h}x{w}" for h, w in SIZES])
def test_pack_and_unpack_match_the_loop_codecs(size, fill):
    rect = Rect(2, 1, 2 + size[0], 1 + size[1])
    intensity, opacity, block = planes_with(rect, fill)
    want, codes = expected_message(intensity, opacity, rect)
    nonblank = int(block.sum())

    msg, packed = counter_deltas(pack_bsbrc, intensity, opacity, rect)
    assert msg.buffer == want
    assert msg.accounted_bytes == (
        RECT_INFO_BYTES + codes.size * RLE_CODE_BYTES + nonblank * PIXEL_BYTES
    )
    assert packed == {
        "rle.encode_calls": 1,
        "rle.codes": codes.size,
        "rle.decode_calls": 0,
        "wire.packed_pixel_bytes": nonblank * PIXEL_BYTES,
        "wire.unpacked_pixel_bytes": 0,
    }

    (got_rect, mask, out_i, out_a), unpacked = counter_deltas(unpack_bsbrc, msg.buffer)
    assert got_rect == rect
    assert mask.shape == (rect.height, rect.width)
    assert np.array_equal(mask.ravel(), _rle_decode_mask_loop(codes, rect.area))
    rows, cols = rect.slices()
    assert np.array_equal(out_i, intensity[rows, cols][block])
    assert np.array_equal(out_a, opacity[rows, cols][block])
    assert unpacked == {
        "rle.encode_calls": 0,
        "rle.codes": 0,
        "rle.decode_calls": 1,
        "wire.packed_pixel_bytes": 0,
        "wire.unpacked_pixel_bytes": nonblank * PIXEL_BYTES,
    }


@pytest.mark.parametrize("fill", ["empty", "full"])
def test_run_longer_than_a_code(fill):
    """A run over 65,535 pixels splits through a zero-length run of the
    other class, exactly as the loop encoder writes it."""
    rect = Rect(0, 0, 260, 260)
    intensity, opacity, _ = planes_with(rect, fill)
    want, codes = expected_message(intensity, opacity, rect)
    assert codes.max() == MAX_RUN and 0 in codes[1:].tolist()
    msg = pack_bsbrc(intensity, opacity, rect)
    assert msg.buffer == want
    got_rect, mask, out_i, _ = unpack_bsbrc(msg.buffer)
    assert got_rect == rect and int(mask.sum()) == out_i.size == (rect.area if fill == "full" else 0)


def test_empty_rect_ships_rect_info_only():
    intensity, opacity, _ = planes_with(Rect(0, 0, 4, 4), "full")
    # Any empty rect canonicalizes to the all-zero rect info.
    for empty in (Rect.empty(), Rect(3, 3, 3, 7), Rect(2, 5, 1, 9)):
        msg, counters = counter_deltas(pack_bsbrc, intensity, opacity, empty)
        assert msg.buffer == bytes(RECT_INFO_BYTES)
        assert msg.accounted_bytes == RECT_INFO_BYTES
        assert not any(counters.values())
        (rect, mask, out_i, out_a), counters = counter_deltas(unpack_bsbrc, msg.buffer)
        assert rect == Rect.empty() and mask is out_i is out_a is None
        assert not any(counters.values())


class TestWireFormatErrors:
    """One case per ``WireFormatError`` branch of the BSBRC decoder."""

    RECT = Rect(0, 0, 2, 3)

    def message(self) -> bytes:
        intensity, opacity, _ = planes_with(self.RECT, "half", seed=4)
        return pack_bsbrc(intensity, opacity, self.RECT).buffer

    def test_shorter_than_rect_info(self):
        with pytest.raises(WireFormatError, match="too short"):
            unpack_bsbrc(self.message()[: RECT_INFO_BYTES - 1])

    def test_truncated_count(self):
        with pytest.raises(WireFormatError, match="truncated before code count"):
            unpack_bsbrc(self.message()[: RECT_INFO_BYTES + 3])

    def test_truncated_codes(self):
        msg = self.message()
        ncodes = struct.unpack_from("<I", msg, RECT_INFO_BYTES)[0]
        cut = RECT_INFO_BYTES + 4 + ncodes * RLE_CODE_BYTES - 1
        with pytest.raises(WireFormatError, match="truncated in code block"):
            unpack_bsbrc(msg[:cut])

    def test_run_sum_mismatch(self):
        msg = bytearray(self.message())
        first = RECT_INFO_BYTES + 4
        struct.pack_into("<H", msg, first, struct.unpack_from("<H", msg, first)[0] + 1)
        with pytest.raises(WireFormatError, match="run lengths sum to"):
            unpack_bsbrc(bytes(msg))

    @pytest.mark.parametrize("delta", [-1, 1, -PIXEL_BYTES, PIXEL_BYTES])
    def test_pixel_block_length(self, delta):
        msg = self.message()
        bad = msg[:delta] if delta < 0 else msg + bytes(delta)
        with pytest.raises(WireFormatError, match="pixel block is"):
            unpack_bsbrc(bad)

    def test_trailing_bytes_after_empty_rect(self):
        with pytest.raises(WireFormatError, match="trailing bytes"):
            unpack_bsbrc(bytes(RECT_INFO_BYTES) + b"\x00")
