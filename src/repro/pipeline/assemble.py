"""The one final-image assembly routine shared by every backend path.

A compositing outcome gives each rank a disjoint *owned* portion of the
final image, either as a contiguous rect or as a flat index set (BSLC).
Exactly one scatter in the codebase writes owned pixels into a display
image, :func:`scatter_tile` — the simulator gather and the
multiprocessing cross-check funnel through :func:`assemble_tiles`, and
a progressive display folds each streamed event through it.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from ..compositing.base import CompositeOutcome
from ..render.image import SubImage
from ..types import Rect

__all__ = [
    "OwnedTile",
    "tile_from_outcome",
    "scatter_tile",
    "assemble_tiles",
    "assemble_outcomes",
]


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


def scatter_tile(image: SubImage, tile: OwnedTile) -> None:
    """Write one owned tile into ``image`` in place.

    The single authoritative rect/indices scatter: a rect tile writes
    its block, an index tile its flat positions.
    """
    owned_rect, owned_indices, values_i, values_a = tile
    if owned_rect is not None:
        if owned_rect.is_empty:
            return
        rows, cols = owned_rect.slices()
        shape = (owned_rect.height, owned_rect.width)
        image.intensity[rows, cols] = np.asarray(values_i).reshape(shape)
        image.opacity[rows, cols] = np.asarray(values_a).reshape(shape)
    else:
        image.intensity.ravel()[owned_indices] = values_i
        image.opacity.ravel()[owned_indices] = values_a


def assemble_tiles(
    tiles: Iterable[OwnedTile], height: int, width: int
) -> SubImage:
    """Scatter every owned tile into a blank ``height x width`` image.

    Tiles are assumed disjoint (``validate_ownership`` checks that
    invariant).
    """
    final = SubImage.blank(height, width)
    for tile in tiles:
        scatter_tile(final, tile)
    return final


def assemble_outcomes(
    outcomes: Sequence[CompositeOutcome], height: int, width: int
) -> SubImage:
    """Merge every rank's owned pixels into the display image."""
    return assemble_tiles((tile_from_outcome(o) for o in outcomes), height, width)
