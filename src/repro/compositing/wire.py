"""Byte-level message formats of the four compositing methods.

Messages are real serialized buffers — pixels, rectangle info and RLE
codes are packed with explicit little-endian layouts and parsed back on
the receiving rank — so that the byte counts driving the communication
model are *measured*, not assumed.

There is one kernel per concept, each taking already-selected pixel
values (a rect's 2-D block or an index set's flat gather — selection is
the caller's business):

* the **pixel block** (:func:`pack_pixels` / :func:`unpack_pixels`):
  ``float64 (intensity, opacity)[n]``, 16 bytes per pixel;
* the **RLE body** (:func:`pack_rle` / :func:`unpack_rle`):
  ``uint32 ncodes``, ``uint16 codes[ncodes]``, then the pixel block of
  the non-blank pixels only, in sequence order;
* the **rect info** header: ``int16 rect[4]``, 8 bytes, which ships even
  for an empty rectangle (the pair cannot know in advance).

The paper's four formats are compositions of those:

* **BS**      the pixel block of the half region, row-major.
* **BSBR**    rect info, then (if non-empty) the pixel block of the rect.
* **BSLC**    the RLE body of an interleaved owned sequence.
* **BSBRC**   rect info, then (if non-empty) the RLE body of the rect's
  row-major pixels.

Every packer returns a :class:`WireMessage` carrying both the actual
buffer and the ``accounted_bytes`` used for pricing/M_max.  The two
differ only by the self-describing ``uint32`` code count, which a real
MPI implementation gets for free from the message envelope
(``MPI_Get_count``); the paper's cost equations likewise do not charge
for it.  All *semantic* content — 16 B/pixel, 8 B rect info, 2 B/RLE
code — is charged exactly as in eqs. (2), (4), (6), (8).

Unpackers hand back **read-only views** into the message buffer wherever
the caller only reads the pixels (the flat paths); the rect-shaped
paths reshape, which materializes a writable plane.  Packers avoid
dtype round-trip copies (``astype(..., copy=False)``) — on a
little-endian host every wire dtype is the native layout.  The fixed
headers (rect info, code count) go through :mod:`struct`: at P=256 a
message carries a few hundred pixels, and per-message Python and numpy
calls, not bytes, are its cost.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .. import perf
from ..errors import WireFormatError
from ..types import PIXEL_BYTES, RECT_INFO_BYTES, RLE_CODE_BYTES, Rect
from .over import nonblank_mask
from .rle import rle_decode_mask, rle_encode_mask

__all__ = [
    "WireMessage",
    "pack_pixels",
    "unpack_pixels",
    "pack_rle",
    "unpack_rle",
    "pack_bs",
    "unpack_bs",
    "pack_bsbr",
    "unpack_bsbr",
    "bsbr_nbytes",
    "pack_bslc",
    "unpack_bslc",
    "pack_bsbrc",
    "unpack_bsbrc",
]

_PIXEL_DTYPE = np.dtype("<f8")
_CODE_DTYPE = np.dtype("<u2")
#: ``int16 rect[4]`` — ``(y0, x0, y1, x1)``.
_RECT_INFO = struct.Struct("<4h")
#: ``uint32 ncodes``.
_NCODES = struct.Struct("<I")
_EMPTY_RECT_INFO = _RECT_INFO.pack(0, 0, 0, 0)


@dataclass(frozen=True, slots=True)
class WireMessage:
    """A serialized compositing message.

    ``buffer`` is what crosses the (simulated) wire; ``accounted_bytes``
    is the size charged to the communication model and to ``M_max`` —
    the paper's accounting, excluding self-describing length fields.
    """

    buffer: bytes
    accounted_bytes: int

    @property
    def nbytes(self) -> int:
        return len(self.buffer)


# --------------------------------------------------------------------------
# the kernels: pixel block, RLE body, rect info
# --------------------------------------------------------------------------
def pack_pixels(vals_i: np.ndarray, vals_a: np.ndarray) -> WireMessage:
    """Every given pixel, blank or not: interleaved ``(intensity,
    opacity)`` float64 pairs in C order, 16 bytes each."""
    stacked = np.empty((vals_i.size, 2), dtype=_PIXEL_DTYPE)
    # asarray is a no-copy passthrough for the float64 planes the
    # renderer produces; the strided column assignments are the single
    # interleaving pass.
    stacked[:, 0] = np.asarray(vals_i, dtype=np.float64).ravel()
    stacked[:, 1] = np.asarray(vals_a, dtype=np.float64).ravel()
    perf.incr("wire.packed_pixel_bytes", stacked.nbytes)
    return WireMessage(buffer=stacked.tobytes(), accounted_bytes=stacked.nbytes)


def unpack_pixels(buf: bytes, npixels: int) -> tuple[np.ndarray, np.ndarray]:
    """Zero-copy views of the (intensity, opacity) columns of ``buf``.

    The returned arrays are **read-only strided views** into the message
    buffer (``np.frombuffer``); every compositing method only reads the
    received pixels, so no defensive copy is made.  Callers that need a
    writable/contiguous plane reshape (which copies) or copy explicitly.
    """
    expected = npixels * PIXEL_BYTES
    if len(buf) != expected:
        raise WireFormatError(f"pixel block is {len(buf)} bytes, expected {expected}")
    perf.incr("wire.unpacked_pixel_bytes", expected)
    flat = np.frombuffer(buf, dtype=_PIXEL_DTYPE).reshape(npixels, 2)
    return flat[:, 0], flat[:, 1]


def pack_rle(vals_i: np.ndarray, vals_a: np.ndarray) -> WireMessage:
    """Run codes over the blank mask, then the non-blank pixels only.

    The mask runs in C order of the given values, so a receiver that
    knows the same sequence (the kept index set, or the rect a header
    names) decodes positionally.
    """
    vals_i = np.asarray(vals_i, dtype=np.float64)
    vals_a = np.asarray(vals_a, dtype=np.float64)
    mask = nonblank_mask(vals_i, vals_a)
    codes = rle_encode_mask(mask.ravel()).astype(_CODE_DTYPE, copy=False)
    # A boolean gather yields the non-blank pixels in C order directly
    # from the (possibly 2-D, sliced) views — no flattened intermediate.
    pixels = pack_pixels(vals_i[mask], vals_a[mask])
    return WireMessage(
        buffer=b"".join((_NCODES.pack(codes.size), codes, pixels.buffer)),
        accounted_bytes=codes.size * RLE_CODE_BYTES + pixels.accounted_bytes,
    )


def unpack_rle(
    msg: bytes, npixels: int, offset: int = 0, what: str = "BSLC"
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decode the RLE body at ``msg[offset:]`` over an ``npixels`` sequence.

    Returns ``(mask, intensity, opacity)``: ``mask`` is the sequence's
    non-blank mask, and the pixels are its ``True`` entries in order.
    """
    off = offset + _NCODES.size
    if len(msg) < off:
        raise WireFormatError(f"{what} message truncated before code count")
    (ncodes,) = _NCODES.unpack_from(msg, offset)
    end = off + ncodes * RLE_CODE_BYTES
    if len(msg) < end:
        raise WireFormatError(f"{what} message truncated in code block")
    mask = rle_decode_mask(
        np.frombuffer(msg, dtype=_CODE_DTYPE, count=ncodes, offset=off), npixels
    )
    # The decoded mask holds exactly the non-blank runs' pixels.  The
    # pixel block is sliced (a copy), not viewed: measured on
    # composite_paper, views into the received messages made every
    # later run fault its buffers in afresh (~30k page faults a run).
    flat_i, flat_a = unpack_pixels(msg[end:], int(np.count_nonzero(mask)))
    return mask, flat_i, flat_a


def _pack_in_rect(
    intensity: np.ndarray,
    opacity: np.ndarray,
    send_rect: Rect,
    pack_body: Callable[[np.ndarray, np.ndarray], WireMessage],
) -> WireMessage:
    """Rect info (always, 8 B), then ``pack_body`` of a non-empty rect's block."""
    if send_rect.is_empty:
        return WireMessage(buffer=_EMPTY_RECT_INFO, accounted_bytes=RECT_INFO_BYTES)
    y0, x0, y1, x1 = send_rect.y0, send_rect.x0, send_rect.y1, send_rect.x1
    body = pack_body(intensity[y0:y1, x0:x1], opacity[y0:y1, x0:x1])
    return WireMessage(
        buffer=_RECT_INFO.pack(y0, x0, y1, x1) + body.buffer,
        accounted_bytes=RECT_INFO_BYTES + body.accounted_bytes,
    )


def _unpack_rect_info(msg: bytes, what: str) -> Rect:
    """The leading rect info; an empty rect must end the message."""
    if len(msg) < RECT_INFO_BYTES:
        raise WireFormatError(f"{what} message too short: {len(msg)} bytes")
    rect = Rect(*_RECT_INFO.unpack_from(msg))
    if rect.is_empty:
        if len(msg) != RECT_INFO_BYTES:
            raise WireFormatError(f"empty-rect {what} message has trailing bytes")
        return Rect.empty()
    return rect


# --------------------------------------------------------------------------
# the paper's four formats
# --------------------------------------------------------------------------
def pack_bs(intensity: np.ndarray, opacity: np.ndarray, half: Rect) -> WireMessage:
    """Whole half-region, blanks included (paper eq. (2): ``16 · A/2^k``)."""
    rows, cols = half.slices()
    return pack_pixels(intensity[rows, cols], opacity[rows, cols])


def unpack_bs(msg: bytes, half: Rect) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`pack_bs`; returns ``(h, w)`` planes."""
    flat_i, flat_a = unpack_pixels(msg, half.area)
    return flat_i.reshape(half.height, half.width), flat_a.reshape(half.height, half.width)


def pack_bsbr(intensity: np.ndarray, opacity: np.ndarray, send_rect: Rect) -> WireMessage:
    """Rect info always ships (8 B); pixels only when non-empty (eq. (4))."""
    return _pack_in_rect(intensity, opacity, send_rect, pack_pixels)


def unpack_bsbr(msg: bytes) -> tuple[Rect, np.ndarray | None, np.ndarray | None]:
    """Returns ``(rect, intensity, opacity)``; planes are ``None`` if empty."""
    rect = _unpack_rect_info(msg, "BSBR")
    if rect.is_empty:
        return rect, None, None
    return (rect, *unpack_bs(msg[RECT_INFO_BYTES:], rect))


def bsbr_nbytes(buf: bytes, offset: int = 0) -> int:
    """Length of the BSBR message that starts at ``buf[offset]``, read
    from its rect info (for BSBR messages packed back to back)."""
    rect = _unpack_rect_info(buf[offset : offset + RECT_INFO_BYTES], "BSBR")
    return RECT_INFO_BYTES + (0 if rect.is_empty else rect.area * PIXEL_BYTES)


def pack_bslc(
    intensity_flat: np.ndarray, opacity_flat: np.ndarray, indices: np.ndarray
) -> WireMessage:
    """Encode the pixels at ``indices`` (the sent interleaved subset, eq. (6)).

    ``intensity_flat``/``opacity_flat`` are flattened full-image planes.
    The mask is taken in sequence order of ``indices`` so the receiver
    (which owns the identical index set) can decode positionally.
    """
    return pack_rle(np.asarray(intensity_flat)[indices], np.asarray(opacity_flat)[indices])


def unpack_bslc(msg: bytes, seq_len: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decode to ``(positions, intensity, opacity)``.

    ``positions`` are offsets into the receiver's owned sequence (length
    ``seq_len``) of the non-blank pixels carried by the message.
    """
    mask, flat_i, flat_a = unpack_rle(msg, seq_len)
    return np.flatnonzero(mask), flat_i, flat_a


def pack_bsbrc(intensity: np.ndarray, opacity: np.ndarray, send_rect: Rect) -> WireMessage:
    """Rect info (8 B) + codes + non-blank pixels of the rect (eq. (8))."""
    return _pack_in_rect(intensity, opacity, send_rect, pack_rle)


def unpack_bsbrc(msg: bytes) -> tuple[Rect, np.ndarray | None, np.ndarray | None, np.ndarray | None]:
    """Decode to ``(rect, mask, intensity, opacity)``.

    ``mask`` is the rect's ``(height, width)`` non-blank mask, and the
    pixels are its ``True`` entries in row-major order; all three are
    ``None`` for an empty rect.
    """
    rect = _unpack_rect_info(msg, "BSBRC")
    if rect.is_empty:
        return rect, None, None, None
    mask, flat_i, flat_a = unpack_rle(msg, rect.area, RECT_INFO_BYTES, "BSBRC")
    return rect, mask.reshape(rect.height, rect.width), flat_i, flat_a
