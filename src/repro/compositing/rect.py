"""Bounding-rectangle machinery for the BSBR / BSBRC methods.

A bounding rectangle is the smallest :class:`~repro.types.Rect` covering
every non-blank pixel of a (sub)image region.  The paper uses it two ways:

* initially, a full scan of the local subimage finds the *local bounding
  rectangle* (cost ``T_bound``, paper eq. (3)/(7));
* at each stage, the region's centerline splits the local rectangle into
  the *new local* and *sending* bounding rectangles (BSBRC algorithm,
  line 6: :meth:`Rect.split`, then :meth:`Rect.intersect`), and after the
  exchange the local rectangle is refreshed as the union of the kept
  part and the *receiving* rectangle (line 21) — an O(1) update, no
  rescan.
"""

from __future__ import annotations

import numpy as np

from ..types import Rect
from .over import nonblank_mask

__all__ = ["find_bounding_rect"]


def find_bounding_rect(
    intensity: np.ndarray,
    opacity: np.ndarray,
    region: Rect | None = None,
) -> Rect:
    """Smallest rect covering all non-blank pixels of ``region``.

    Coordinates are in full-image space.  Returns :meth:`Rect.empty` when
    the region contains no foreground pixel.
    """
    height, width = intensity.shape
    if region is None:
        region = Rect.full(height, width)
    region = region.intersect(Rect.full(height, width))
    if region.is_empty:
        return Rect.empty()
    rows, cols = region.slices()
    mask = nonblank_mask(intensity[rows, cols], opacity[rows, cols])
    row_any = mask.any(axis=1)
    if not row_any.any():
        return Rect.empty()
    col_any = mask.any(axis=0)
    y_idx = np.flatnonzero(row_any)
    x_idx = np.flatnonzero(col_any)
    return Rect(
        region.y0 + int(y_idx[0]),
        region.x0 + int(x_idx[0]),
        region.y0 + int(y_idx[-1]) + 1,
        region.x0 + int(x_idx[-1]) + 1,
    )
