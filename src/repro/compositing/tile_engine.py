"""Asynchronous tile-routed compositing — the barrier-free peer of
:class:`~repro.compositing.engine.ScheduledCompositor`.

Where the scheduled engine runs ``log2 P`` stage-synchronous exchange
rounds, :class:`TileRoutedCompositor` runs exactly one logical round
with per-tile granularity: every rank encodes its contribution to each
tile of the frame's tile grid (:mod:`repro.compositing.tiles`) and
pushes it straight to the tile's owner through a tag-routed message
pump (:class:`~repro.cluster.collectives.TileRouter`); an owner
completes a tile the moment all ``P - 1`` remote contributions have
arrived — never waiting on unrelated tiles, ranks, or stages.

Determinism: arrival order influences *when* a tile completes, never
*what* it contains — the owner folds contributions by rank index
through the balanced tree of :func:`~repro.compositing.tiles.
fold_tile_planes`, reproducing binary-swap's association bit for bit
(codecs included: skipped pixels are exactly blank, and blank operands
are IEEE identities under *over*).

Ownership: the caller's planes are read, never written.  An owner
folds each tile into a piece of its own, and the rank's outcome is one
:class:`~repro.compositing.base.OwnedPiece` per owned tile, each with a
:class:`~repro.compositing.tiles.TilePart`.

Accounting: the wire traffic is priced through the same Ts/Tc/To model
as every other method, all of it in stage 0: each non-owned tile is
``T_bound``-scanned (codecs that track a rect), encoded, packed and
pushed before the next one, in tile-id order, and owned tiles fold and
charge ``T_over`` as they complete; per-rank byte/message counters are
identical on the sim and mp substrates.  Each completed tile appends a
``tile_complete`` event (with the substrate time since the engine
started) to the rank's stats, which the run-timeline layer turns into
latency-to-first-pixel metrics.

Recovery: stage checkpoints do not apply (there are no stage
boundaries to snapshot), so ``checkpoint-resume`` finds no common stage
and replays every rank from the start — the same lossless lockstep
replay as ``respawn``, not a fall down the lattice; degradation works
unchanged —
:meth:`TileRoutedCompositor.refold_pairs` reports the bisection buddy
pairing, and the rebuilt tile map over the survivor count re-folds a
lost rank's owned tiles onto the survivors deterministically.
"""

from __future__ import annotations

import numpy as np

from ..cluster.collectives import TileRouter
from ..cluster.protocol import BaseRankContext
from ..errors import ConfigurationError
from ..render.image import SubImage
from ..types import Rect
from ..volume.partition import PartitionPlan
from .base import CompositeOutcome, Compositor, OwnedPiece
from .codec import PixelCodec
from .schedule import RectPart
from .tiles import TileMap, TilePart, build_tile_map, densify_contribution, fold_tile_planes

__all__ = ["TileRoutedCompositor", "DEFAULT_TILE"]

#: Default tile edge length (Usher et al. use 64; 32 keeps small frames
#: multi-tile so the asynchrony is visible at paper-scale image sizes).
DEFAULT_TILE = 32


def _contribution_pixels(contrib, tile_rect: Rect) -> int:
    """Pixels a decoded contribution charges under *over* — the count the
    codec's ``composite`` would report on the scheduled engine: masked
    pixels for run-length payloads, the carried (sub-)rect's area for
    dense ones."""
    if contrib.mask is not None:
        return int(contrib.values_i.size)
    if contrib.rect is not None:
        return contrib.rect.area
    return tile_rect.area


class TileRoutedCompositor(Compositor):
    """Composite by routing per-tile contributions to tile owners."""

    def __init__(self, codec: PixelCodec, *, tile: int = DEFAULT_TILE, name: str | None = None):
        if "rect" not in codec.supports:
            raise ConfigurationError(
                f"codec {codec.name!r} cannot carry rect-shaped tiles "
                f"(codec supports: {sorted(codec.supports)})"
            )
        if int(tile) < 1:
            raise ConfigurationError(f"tile size must be >= 1, got {tile}")
        self.codec = codec
        self.tile = int(tile)
        self.name = name or f"tile-routed:{codec.name}"

    def refold_pairs(self, size: int) -> list[tuple[int, int]]:
        """Fold pairing for graceful degradation (bisection buddies).

        The tile grid has no exchange structure of its own, so a lost
        rank folds onto its spatial-bisection buddy; the rebuilt tile
        map over the survivor count then reassigns the lost rank's
        owned tiles deterministically.
        """
        return [(2 * i, 2 * i + 1) for i in range(size // 2)]

    async def run(
        self,
        ctx: BaseRankContext,
        image: SubImage,
        plan: PartitionPlan,
        view_dir: np.ndarray,
    ) -> CompositeOutcome:
        self.check_plan(ctx, plan)
        tile_map = build_tile_map(image.full_rect(), self.tile, ctx.size)
        start = ctx.now()
        scans = self.codec.needs_bound_scan
        # Host-only blank proof: a tile outside the foreground's bounding
        # rect skips its host scan (its modelled scan is charged all the
        # same), so blank tiles cost the host nothing.
        nonblank = image.bounding_rect() if scans else None
        ctx.begin_stage(0)
        router = TileRouter(ctx, tile_map.owners)
        await router.post_receives(tile_map.owned(ctx.rank))
        for tile_id in range(tile_map.num_tiles):
            if tile_map.owner(tile_id) == ctx.rank:
                continue
            state = None
            if scans:
                rect = tile_map.rect(tile_id)
                state = self.codec.make_state(image)
                await self.codec.scan_region(
                    ctx, image, state, rect, blank=rect.intersect(nonblank).is_empty
                )
            await self._encode_and_push(ctx, router, image, tile_map, tile_id, state)
        outcome = await self._complete_owned(
            ctx, router, image, plan, view_dir, tile_map, start
        )
        await router.flush()
        return outcome

    # ---- internals ---------------------------------------------------------
    async def _encode_and_push(
        self,
        ctx: BaseRankContext,
        router: TileRouter,
        image: SubImage,
        tile_map: TileMap,
        tile_id: int,
        state,
    ) -> None:
        part = RectPart(tile_map.rect(tile_id))
        msg, meta = self.codec.encode(image, part, state)
        await self.codec.charge_encode(ctx, part, meta)
        if msg.buffer:
            await ctx.charge_pack(len(msg.buffer))
        await router.push(tile_id, msg.buffer, msg.accounted_bytes)

    async def _complete_owned(
        self,
        ctx: BaseRankContext,
        router: TileRouter,
        image: SubImage,
        plan: PartitionPlan,
        view_dir: np.ndarray,
        tile_map: TileMap,
        start: float,
    ) -> CompositeOutcome:
        remote = [r for r in range(ctx.size) if r != ctx.rank]
        pieces = []
        for tile_id in tile_map.owned(ctx.rank):
            rect = tile_map.rect(tile_id)
            part = TilePart(rect)
            raws = await router.collect(tile_id)
            planes: list = [None] * ctx.size
            planes[ctx.rank] = OwnedPiece.cut(part, image)[1:]
            charged = 0
            for src, raw in zip(remote, raws):
                # The tile rect doubles as the decode metadata: tile
                # routing has no symmetric local send for this message,
                # so sender-side notes (a_send) record the addressed
                # tile's area — deterministic on every substrate.
                contrib = self.codec.decode(ctx, raw, part, rect, 0)
                planes[src] = densify_contribution(contrib, rect)
                charged += _contribution_pixels(contrib, rect)
            piece = OwnedPiece(part, *fold_tile_planes(planes, plan, view_dir))
            pieces.append(piece)
            # Charge T_over for the pixels each contribution actually
            # carries — the same convention as the codec's ``composite``
            # on the scheduled engine (the dense tree fold is just the
            # deterministic way to *evaluate* the sparse composite; a
            # blank operand is an identity a real implementation skips).
            if charged:
                await ctx.charge_over(charged)
            ctx.note("tile_complete")
            elapsed = ctx.now() - start
            ctx.stats.events.append(
                {
                    "event": "tile_complete",
                    "rank": ctx.rank,
                    "tile": tile_id,
                    "pixels": rect.area,
                    "t": elapsed,
                }
            )
            if ctx.progress is not None:
                # Stream the tile's final pixels the moment they exist
                # (tile-routed tiles never change after completion).
                # No charges, so accounting is unchanged.
                ctx.progress.emit_tile(
                    rank=ctx.rank,
                    tile=tile_id,
                    piece=piece,
                    frame_pixels=image.num_pixels,
                    t=elapsed,
                )
        return tuple(pieces)
