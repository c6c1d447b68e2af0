"""The tile plane: deterministic tile ownership + per-tile depth folding.

Tile-routed compositing (Usher et al.'s Distributed FrameBuffer
direction) replaces the stage-synchronous exchange with per-tile
ownership: the frame is cut into a fixed grid of tiles, every tile is
owned by exactly one rank (round-robin over the row-major grid), and
each rank pushes its contribution to every tile straight to that tile's
owner.  A tile is *complete* the moment its owner holds all ``P - 1``
remote contributions — no stage barriers anywhere.

Determinism under reordering: the owner folds a tile's contributions
with :func:`fold_tile_planes`, a balanced binary tree over the rank
axis that combines group bases ``b`` and ``b + 2**s`` at level ``s``
with the front/back decision of
:meth:`~repro.volume.partition.PartitionPlan.local_in_front` — exactly
the association binary-swap's stage recursion computes.  Because the
fold reads contributions by rank index (never by arrival order) and the
tree shape depends only on ``P``, the folded pixels are bit-identical
to ``binary-swap:raw`` no matter how the network interleaves tile
messages.  Sparse codecs stay exact too: a skipped pixel is exactly
blank ``(0, 0)``, and *over* with a blank operand is the IEEE identity
on the other operand, so densifying contributions with zero-fill
reproduces the raw arithmetic bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import CompositingError, ConfigurationError
from ..types import Rect
from .codec import Contribution
from .over import over
from .schedule import RectPart

__all__ = [
    "TileMap",
    "TilePart",
    "build_tile_map",
    "densify_contribution",
    "fold_tile_planes",
    "tile_flat_indices",
]


@dataclass(frozen=True, eq=False)
class TileMap:
    """Deterministic tile grid + ownership over a frame rect.

    Tiles are the row-major cells of a ``tile``-sized grid covering
    ``frame`` (edge tiles are clipped, so the rects partition the frame
    exactly).  Tile ``t`` is owned by rank ``t % num_ranks`` — every
    rank knows every owner without communication, and re-building the
    map over a smaller rank count (graceful degradation) re-folds a
    lost rank's tiles onto the survivors deterministically.
    """

    frame: Rect
    tile: int
    tiles_y: int
    tiles_x: int
    rects: tuple[Rect, ...]
    owners: tuple[int, ...]
    num_ranks: int

    @property
    def num_tiles(self) -> int:
        return len(self.rects)

    def rect(self, tile_id: int) -> Rect:
        return self.rects[tile_id]

    def owner(self, tile_id: int) -> int:
        return self.owners[tile_id]

    def owned(self, rank: int) -> list[int]:
        """Tile ids owned by ``rank``, ascending."""
        return [t for t in range(self.num_tiles) if self.owners[t] == rank]


@dataclass(frozen=True, eq=False)
class TilePart(RectPart):
    """One tile of a :class:`TileMap`, as a part an owner's outcome holds.

    A rect in every respect but one: the final gather ships a tile
    owner's pieces by flat index, as one index set over all its tiles,
    even when it owns a single tile.
    """


def build_tile_map(frame: Rect, tile: int, num_ranks: int) -> TileMap:
    """Cut ``frame`` into a ``tile``-sized grid with round-robin owners."""
    if tile < 1:
        raise ConfigurationError(f"tile size must be >= 1, got {tile}")
    if num_ranks < 1:
        raise ConfigurationError(f"tile map needs >= 1 rank, got {num_ranks}")
    if frame.is_empty:
        raise ConfigurationError(f"cannot tile an empty frame {frame}")
    tiles_y = -(-frame.height // tile)
    tiles_x = -(-frame.width // tile)
    rects = []
    for ty in range(tiles_y):
        y0 = frame.y0 + ty * tile
        y1 = min(y0 + tile, frame.y1)
        for tx in range(tiles_x):
            x0 = frame.x0 + tx * tile
            x1 = min(x0 + tile, frame.x1)
            rects.append(Rect(y0, x0, y1, x1))
    owners = tuple(t % num_ranks for t in range(len(rects)))
    return TileMap(
        frame=frame,
        tile=int(tile),
        tiles_y=tiles_y,
        tiles_x=tiles_x,
        rects=tuple(rects),
        owners=owners,
        num_ranks=int(num_ranks),
    )


def tile_flat_indices(rect: Rect, frame_width: int) -> np.ndarray:
    """Flat row-major frame indices of the pixels inside ``rect``."""
    if rect.is_empty:
        return np.empty(0, dtype=np.int64)
    rows = np.arange(rect.y0, rect.y1, dtype=np.int64)
    cols = np.arange(rect.x0, rect.x1, dtype=np.int64)
    return (rows[:, None] * frame_width + cols[None, :]).ravel()


def densify_contribution(
    contrib: Contribution, tile_rect: Rect
) -> tuple[np.ndarray, np.ndarray]:
    """Materialize a decoded contribution as dense tile planes.

    Pixels the codec skipped are exactly blank at the sender, so
    zero-filling them keeps the tree fold's arithmetic bit-identical to
    shipping raw pixels (*over* with a blank operand is an IEEE
    identity).  Handles every rect-capable codec output: dense tile
    blocks (raw), sub-rect blocks (rect), and masked sparse pixels
    (rle / rect-rle).
    """
    if contrib.rect is None:
        raise CompositingError("tile contributions must be rect-shaped")
    height, width = tile_rect.height, tile_rect.width
    rect = contrib.rect
    if (
        rect == tile_rect
        and contrib.mask is None
        and contrib.values_i is not None
    ):
        return (
            np.asarray(contrib.values_i).reshape(height, width),
            np.asarray(contrib.values_a).reshape(height, width),
        )
    dense_i = np.zeros((height, width), dtype=np.float64)
    dense_a = np.zeros((height, width), dtype=np.float64)
    if rect.is_empty:
        return dense_i, dense_a
    if not tile_rect.contains(rect):
        raise CompositingError(
            f"contribution rect {rect} falls outside tile {tile_rect}"
        )
    dy = rect.y0 - tile_rect.y0
    dx = rect.x0 - tile_rect.x0
    block = (slice(dy, dy + rect.height), slice(dx, dx + rect.width))
    if contrib.mask is None:
        dense_i[block] = np.asarray(contrib.values_i).reshape(rect.height, rect.width)
        dense_a[block] = np.asarray(contrib.values_a).reshape(rect.height, rect.width)
    else:
        dense_i[block][contrib.mask] = contrib.values_i
        dense_a[block][contrib.mask] = contrib.values_a
    return dense_i, dense_a


def fold_tile_planes(
    planes: list[tuple[np.ndarray, np.ndarray]],
    plan,
    view_dir: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Depth-ordered balanced tree fold of per-rank tile planes.

    ``planes[r]`` is rank ``r``'s dense contribution to one tile.  Level
    ``s`` combines group bases ``b`` and ``b + 2**s`` with the low group
    in front iff ``plan.local_in_front(b, s, view_dir)`` — the same
    association and operand order as binary-swap's stage ``s`` exchange,
    so the result is bit-identical to ``binary-swap:raw`` on the tile.

    Returns ``(intensity, opacity, folded)`` where ``folded`` is the
    total pixel count that went through *over* (the ``T_over`` charge).
    """
    size = len(planes)
    if size & (size - 1) != 0 or size < 1:
        raise CompositingError(
            f"tile tree fold needs a power-of-two rank count, got {size}"
        )
    current = list(planes)
    folded = 0
    span = 1
    stage = 0
    while span < size:
        for base in range(0, size, 2 * span):
            low_i, low_a = current[base]
            high_i, high_a = current[base + span]
            if plan.local_in_front(base, stage, view_dir):
                out_i, out_a = over(low_i, low_a, high_i, high_a)
            else:
                out_i, out_a = over(high_i, high_a, low_i, low_a)
            current[base] = (out_i, out_a)
            folded += int(out_i.size)
        span <<= 1
        stage += 1
    final_i, final_a = current[0]
    return final_i, final_a, folded
