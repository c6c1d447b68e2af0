"""Value-based run-length codec (Ahrens & Painter 1998 style).

The related-work compression scheme the paper argues *against* for
volume rendering (§3.3): runs merge consecutive pixels with **equal
values**, each run carrying the pixel value plus a count field.  For
integer-valued surface/polygon renderings long equal-value runs are
common and this compresses extremely well.  For floating-point volume
pixels, adjacent non-blank values almost never repeat, so every
non-blank pixel becomes its own run and the count field is pure
overhead: 18 bytes per non-blank pixel versus the paper's 16 + amortized
mask codes.  Implementing both codecs lets the benchmarks reproduce that
argument quantitatively (``bench_ablations.py``).

Wire layout of a run block (little-endian):
``uint32 nruns`` · ``uint16 counts[nruns]`` · ``float64 (i, a)[nruns]``.
Accounted bytes: ``18 * nruns`` (16 B value + 2 B count per run), the
cost model of Ahrens & Painter's pixel format.
"""

from __future__ import annotations

import numpy as np

from ..errors import WireFormatError
from .rle import MAX_RUN
from .wire import WireMessage

__all__ = [
    "value_rle_encode",
    "value_rle_decode",
    "VALUE_RUN_BYTES",
    "pack_value_runs",
    "unpack_value_runs",
]

#: Wire bytes per value run: intensity + opacity (16) + count (2).
VALUE_RUN_BYTES = 18

_LEN_DTYPE = np.dtype("<u4")
_COUNT_DTYPE = np.dtype("<u2")
_PIXEL_DTYPE = np.dtype("<f8")


def value_rle_encode(
    intensity: np.ndarray, opacity: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Merge consecutive equal ``(intensity, opacity)`` pixels into runs.

    Returns ``(run_i, run_a, counts)`` — parallel arrays, counts capped
    at :data:`~repro.compositing.rle.MAX_RUN` (longer runs split).
    """
    intensity = np.asarray(intensity, dtype=np.float64).ravel()
    opacity = np.asarray(opacity, dtype=np.float64).ravel()
    if intensity.shape != opacity.shape:
        raise WireFormatError("intensity/opacity length mismatch")
    n = intensity.size
    if n == 0:
        empty = np.empty(0, dtype=np.float64)
        return empty, empty.copy(), np.empty(0, dtype=np.uint16)

    change = np.flatnonzero(
        (intensity[1:] != intensity[:-1]) | (opacity[1:] != opacity[:-1])
    ) + 1
    starts = np.concatenate(([0], change))
    lengths = np.diff(np.concatenate((starts, [n])))

    run_i: list[float] = []
    run_a: list[float] = []
    counts: list[int] = []
    for start, length in zip(starts, lengths):
        value_i = float(intensity[start])
        value_a = float(opacity[start])
        remaining = int(length)
        while remaining > MAX_RUN:
            run_i.append(value_i)
            run_a.append(value_a)
            counts.append(MAX_RUN)
            remaining -= MAX_RUN
        run_i.append(value_i)
        run_a.append(value_a)
        counts.append(remaining)
    return (
        np.asarray(run_i, dtype=np.float64),
        np.asarray(run_a, dtype=np.float64),
        np.asarray(counts, dtype=np.uint16),
    )


def value_rle_decode(
    run_i: np.ndarray, run_a: np.ndarray, counts: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Expand runs back into per-pixel arrays of length ``n``."""
    counts = np.asarray(counts, dtype=np.uint16)
    total = int(counts.sum(dtype=np.int64))
    if total != n:
        raise WireFormatError(f"value runs cover {total} pixels, expected {n}")
    if counts.size != np.asarray(run_i).size or counts.size != np.asarray(run_a).size:
        raise WireFormatError("run arrays have mismatched lengths")
    reps = counts.astype(np.int64)
    return np.repeat(np.asarray(run_i, np.float64), reps), np.repeat(
        np.asarray(run_a, np.float64), reps
    )


def pack_value_runs(intensity: np.ndarray, opacity: np.ndarray) -> WireMessage:
    """Serialize a pixel sequence with value RLE; see module docstring."""
    run_i, run_a, counts = value_rle_encode(intensity, opacity)
    header = np.asarray([counts.size], dtype=_LEN_DTYPE).tobytes()
    values = np.empty((counts.size, 2), dtype=_PIXEL_DTYPE)
    values[:, 0] = run_i
    values[:, 1] = run_a
    buffer = header + counts.astype(_COUNT_DTYPE).tobytes() + values.tobytes()
    return WireMessage(buffer=buffer, accounted_bytes=counts.size * VALUE_RUN_BYTES)


def unpack_value_runs(msg: bytes, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`pack_value_runs`: per-pixel ``(i, a)`` arrays."""
    if len(msg) < _LEN_DTYPE.itemsize:
        raise WireFormatError(f"value-RLE message too short: {len(msg)} bytes")
    nruns = int(np.frombuffer(msg[: _LEN_DTYPE.itemsize], dtype=_LEN_DTYPE)[0])
    off = _LEN_DTYPE.itemsize
    count_bytes = nruns * _COUNT_DTYPE.itemsize
    if len(msg) < off + count_bytes + nruns * 16:
        raise WireFormatError("value-RLE message truncated")
    counts = np.frombuffer(msg[off : off + count_bytes], dtype=_COUNT_DTYPE)
    off += count_bytes
    values = np.frombuffer(msg[off : off + nruns * 16], dtype=_PIXEL_DTYPE).reshape(
        nruns, 2
    )
    if len(msg) != off + nruns * 16:
        raise WireFormatError("value-RLE message has trailing bytes")
    return value_rle_decode(values[:, 0], values[:, 1], counts, n)
