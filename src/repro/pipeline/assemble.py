"""The one final-image assembly routine shared by every backend path.

A compositing outcome gives each rank a disjoint *owned* portion of the
final image, either as a contiguous rect or as a flat index set (BSLC).
Exactly one scatter loop in the codebase turns a collection of owned
tiles back into a display image — the simulator gather and the
multiprocessing cross-check both funnel through :func:`assemble_tiles`.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from ..compositing.base import CompositeOutcome
from ..render.image import SubImage
from ..types import Rect

__all__ = ["OwnedTile", "tile_from_outcome", "assemble_tiles", "assemble_outcomes"]


class OwnedTile(NamedTuple):
    """One rank's owned pixels, detached from its full-frame buffer.

    Exactly one of ``owned_rect`` / ``owned_indices`` is set;
    ``values_i``/``values_a`` are the flat owned intensity/opacity values
    in row-major (rect) or index (indices) order.  This is the wire shape
    of the final gather: small enough to ship, complete enough to
    assemble.
    """

    owned_rect: Optional[Rect]
    owned_indices: Optional[np.ndarray]
    values_i: np.ndarray
    values_a: np.ndarray


def tile_from_outcome(outcome: CompositeOutcome) -> OwnedTile:
    """Extract the owned tile of one compositing outcome."""
    values_i, values_a = outcome.owned_values()
    return OwnedTile(outcome.owned_rect, outcome.owned_indices, values_i, values_a)


def assemble_tiles(
    tiles: Iterable[OwnedTile], height: int, width: int
) -> SubImage:
    """Scatter every owned tile into a blank ``height x width`` image.

    The single authoritative rect/indices scatter loop: rect tiles write
    their block, index tiles write their flat positions.  Tiles are
    assumed disjoint (``validate_ownership`` checks that invariant).
    """
    final = SubImage.blank(height, width)
    flat_i = final.intensity.ravel()
    flat_a = final.opacity.ravel()
    for owned_rect, owned_indices, values_i, values_a in tiles:
        if owned_rect is not None:
            if owned_rect.is_empty:
                continue
            rows, cols = owned_rect.slices()
            final.intensity[rows, cols] = np.asarray(values_i).reshape(
                owned_rect.height, owned_rect.width
            )
            final.opacity[rows, cols] = np.asarray(values_a).reshape(
                owned_rect.height, owned_rect.width
            )
        else:
            flat_i[owned_indices] = values_i
            flat_a[owned_indices] = values_a
    return final


def assemble_outcomes(
    outcomes: Sequence[CompositeOutcome], height: int, width: int
) -> SubImage:
    """Merge every rank's owned pixels into the display image."""
    return assemble_tiles((tile_from_outcome(o) for o in outcomes), height, width)
