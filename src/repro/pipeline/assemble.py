"""The one final-image assembly routine shared by every backend path.

A compositing outcome gives each rank the disjoint pieces of the final
image it owns (:class:`~repro.compositing.base.OwnedPiece`: a part and
that part's pixels).  Exactly one scatter in the codebase writes owned
pixels into a display image, :func:`scatter_tile` — :func:`assemble_final`,
the gather to rank 0, ``validate_ownership`` and a progressive display
folding each streamed event all go through it.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from ..compositing.base import CompositeOutcome
from ..compositing.schedule import RectPart
from ..compositing.tiles import TilePart, tile_flat_indices
from ..render.image import SubImage

__all__ = [
    "scatter_tile",
    "assemble_final",
    "gather_payload",
    "payload_piece",
]


def scatter_tile(image: SubImage, part, intensity: np.ndarray, opacity: np.ndarray) -> None:
    """Write one part's pixels into full-frame ``image`` in place.

    The single authoritative owned-pixel scatter: a rect part writes
    its block, an index part its sections, a gathered index set its
    flat positions.
    """
    part.put(image.intensity, intensity)
    part.put(image.opacity, opacity)


def assemble_final(
    outcomes: Sequence[CompositeOutcome], height: int, width: int
) -> SubImage:
    """Scatter every rank's owned pieces into a blank ``height x width``
    display image.

    Pieces are assumed disjoint (``validate_ownership`` checks that
    invariant).
    """
    final = SubImage.blank(height, width)
    for outcome in outcomes:
        for piece in outcome:
            scatter_tile(final, *piece)
    return final


class _FlatIndices(NamedTuple):
    """The part a gathered index set addresses: flat frame positions."""

    flat: np.ndarray

    def put(self, plane: np.ndarray, values: np.ndarray) -> None:
        plane.reshape(-1)[self.flat] = values


def gather_payload(outcome: CompositeOutcome, width: int) -> tuple:
    """One rank's pieces as the final gather ships them.

    A lone rect piece ships ``(rect, None, values_i, values_a)``; any
    other outcome (an index part, or a tile owner's tiles) ships
    ``(None, flat indices, values_i, values_a)`` over all its pieces in
    order.  The values are raw float64 bytes.  The payload's pickled
    size prices the modelled gather stage.
    """
    values = [b"".join(p.intensity.tobytes() for p in outcome),
              b"".join(p.opacity.tobytes() for p in outcome)]
    parts = [piece.part for piece in outcome]
    if len(parts) == 1 and parts[0].kind == "rect" and not isinstance(parts[0], TilePart):
        return (parts[0].rect, None, *values)
    flat = [p.flat() if p.kind == "index" else tile_flat_indices(p.rect, width) for p in parts]
    return (None, np.concatenate(flat or [np.empty(0, dtype=np.int64)]), *values)


def payload_piece(payload: tuple) -> tuple:
    """``(part, values_i, values_a)`` of a :func:`gather_payload`, ready
    for :func:`scatter_tile`."""
    rect, flat, raw_i, raw_a = payload
    part = RectPart(rect) if rect is not None else _FlatIndices(flat)
    return (
        part,
        np.frombuffer(raw_i, dtype=np.float64),
        np.frombuffer(raw_a, dtype=np.float64),
    )
