"""Blank/non-blank run-length codec (BSLC and BSBRC wire compression).

Unlike Ahrens & Painter's value-based RLE (good for integer-valued
surface-rendering pixels), the paper encodes only the *background /
foreground* classification of each pixel (§3.3): floating-point volume
pixels almost never repeat exactly, so value RLE would degenerate while
mask RLE still compresses the long blank spans of sparse subimages.

Wire format
-----------
A sequence of ``uint16`` run lengths that **starts with a blank run**
(possibly of length zero) and then strictly alternates
blank/non-blank/blank/...  Runs longer than 65535 are split by inserting
a zero-length run of the opposite class, so any mask of any length has an
exact encoding.  Each code element costs 2 bytes on the wire
(``RLE_CODE_BYTES``), matching the paper's ``2 · R_code`` terms.

Both directions are fully vectorized: encode derives run lengths from
value-change positions and materializes over-long-run splits with
arithmetic on the run-length array; decode is a single ``np.repeat`` of
the alternating class pattern.  The original Python-loop codecs live in
``tests/oracles.py`` as the byte-identity oracles.
"""

from __future__ import annotations

import numpy as np

from .. import perf
from ..errors import WireFormatError

__all__ = ["rle_encode_mask", "rle_decode_mask", "count_nonblank", "MAX_RUN"]

#: Largest run representable by one uint16 code element.
MAX_RUN = 0xFFFF


def _change_points(mask: np.ndarray) -> np.ndarray:
    """Ascending indices ``i > 0`` where ``mask[i] != mask[i - 1]``.

    Run boundaries are sparse in run-structured masks, so for large
    inputs the positions are extracted via ``np.packbits``: zero bytes
    (8 unchanged pixels) are skipped wholesale and only the few nonzero
    bytes are unpacked, which is several times faster than scanning the
    dense boolean array with ``np.flatnonzero``.
    """
    neq = mask[1:] != mask[:-1]
    if neq.size >= 4096:
        packed = np.packbits(neq)  # zero-padded tail adds no changes
        # np.nonzero only has a fast path for bool inputs, so give it
        # bool views instead of the raw uint8 arrays.
        nzb = np.flatnonzero(packed != 0)
        if nzb.size == 0:
            return nzb
        bits = np.flatnonzero(np.unpackbits(packed[nzb]).view(np.bool_))
        # In-place arithmetic: these are output-sized temporaries on the
        # hot path, so avoid re-allocating one per operator.
        change = nzb[bits >> 3]
        change *= 8
        bits &= 7
        change += bits
        change += 1
        return change
    # ``ndarray.nonzero`` skips np.flatnonzero's Python wrapper, which
    # costs more than the scan itself on a few-hundred-pixel rect.
    change = neq.nonzero()[0]
    change += 1
    return change


def rle_encode_mask(mask: np.ndarray) -> np.ndarray:
    """Encode a 1-D boolean mask into alternating uint16 run lengths.

    ``mask[i]`` is True for non-blank pixels.  Runs alternate starting
    with blank; over-long runs are split with zero-length opposite runs.
    The empty mask encodes to an empty code array.
    """
    mask = np.asarray(mask)
    if mask.ndim != 1:
        raise WireFormatError(f"mask must be 1-D, got shape {mask.shape}")
    n = mask.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.uint16)
    mask = mask.astype(bool, copy=False)
    # Boundaries between runs: positions where the value changes.
    change = _change_points(mask)
    # Run lengths, assembled with one allocation instead of the two
    # concatenations np.diff(prepend=..., append=...) would make.
    lengths = np.empty(change.size + 1, dtype=np.int64)
    if change.size:
        lengths[0] = change[0]
        np.subtract(change[1:], change[:-1], out=lengths[1:-1])
        lengths[-1] = n - change[-1]
    else:
        lengths[0] = n
    lead = int(mask[0])  # leading zero-length blank run needed?

    perf.incr("rle.encode_calls")

    if lengths.max(initial=0) <= MAX_RUN:
        # Fast path: no run needs splitting.
        codes = np.empty(lead + lengths.size, dtype=np.uint16)
        codes[:lead] = 0
        codes[lead:] = lengths
        perf.incr("rle.codes", codes.size)
        return codes

    # General path: a run of length L > MAX_RUN becomes
    # [MAX_RUN, 0] * nsplit + [L - nsplit * MAX_RUN]  with
    # nsplit = (L - 1) // MAX_RUN, exactly as the loop encoder emits.
    nsplit = (lengths - 1) // MAX_RUN
    counts = 2 * nsplit + 1  # code elements produced per run
    starts = lead + np.concatenate(([0], np.cumsum(counts[:-1])))
    total = lead + int(counts.sum())
    codes = np.zeros(total, dtype=np.uint16)  # zeros: lead + opposite-class splits
    # Positions of the full MAX_RUN pieces: starts[i] + 2*j, j < nsplit[i].
    split_runs = np.flatnonzero(nsplit)
    if split_runs.size:
        reps = nsplit[split_runs]
        base = np.repeat(starts[split_runs], reps)
        # Within-run piece index 0..nsplit-1, built without a Python loop.
        offsets = np.arange(reps.sum(), dtype=np.int64) - np.repeat(
            np.cumsum(reps) - reps, reps
        )
        codes[base + 2 * offsets] = MAX_RUN
    codes[starts + 2 * nsplit] = lengths - nsplit * MAX_RUN
    perf.incr("rle.codes", codes.size)
    return codes


def rle_decode_mask(codes: np.ndarray, n: int) -> np.ndarray:
    """Decode run lengths back to a boolean mask of length ``n``.

    Raises :class:`WireFormatError` when the codes do not sum to ``n``.
    """
    codes = np.asarray(codes, dtype=np.uint16)
    if codes.ndim != 1:
        raise WireFormatError(f"codes must be 1-D, got shape {codes.shape}")
    total = int(np.add.reduce(codes, dtype=np.int64))
    if total != n:
        raise WireFormatError(f"run lengths sum to {total}, expected {n}")
    perf.incr("rle.decode_calls")
    # Even positions are blank runs, odd positions non-blank.
    classes = np.zeros(codes.size, dtype=bool)
    classes[1::2] = True
    return classes.repeat(codes)


def count_nonblank(codes: np.ndarray) -> int:
    """Number of non-blank pixels described by a code sequence.

    Non-blank runs occupy the odd positions of the alternating sequence.
    """
    codes = np.asarray(codes, dtype=np.uint16)
    if codes.ndim != 1:
        raise WireFormatError(f"codes must be 1-D, got shape {codes.shape}")
    return int(codes[1::2].sum(dtype=np.int64))
