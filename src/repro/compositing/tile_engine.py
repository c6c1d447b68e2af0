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

Accounting: the wire traffic is priced through the same Ts/Tc/To model
as every other method — ``T_bound`` per-tile scans land in the
pre-stage bucket, encode/pack/over charges and per-rank byte/message
counters land in stage 0, identically on the sim and mp substrates.
Each completed tile appends a ``tile_complete`` event (with the
substrate time since the engine started) to the rank's stats, which the
run-timeline layer turns into latency-to-first-pixel metrics.

:meth:`TileRoutedCompositor.run_fused` is the render-overlapped entry:
a callback finishes the rank image tile by tile (in practice one tile
row at a time) and each finished tile enters the router while later
ones are still rendering.

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
from ..cluster.stats import PRE_STAGE
from ..errors import ConfigurationError
from ..render.image import SubImage
from ..types import Rect
from ..volume.partition import PartitionPlan
from .base import CompositeOutcome, Compositor
from .codec import PixelCodec
from .schedule import RectPart
from .tiles import TileMap, build_tile_map, densify_contribution, fold_tile_planes

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
        states: dict[int, object] = {}
        if self.codec.needs_bound_scan:
            ctx.begin_stage(PRE_STAGE)
            for tile_id in range(tile_map.num_tiles):
                if tile_map.owner(tile_id) == ctx.rank:
                    continue
                state = self.codec.make_state(image)
                await self.codec.scan_region(
                    ctx, image, state, tile_map.rect(tile_id)
                )
                states[tile_id] = state
        ctx.begin_stage(0)
        router = TileRouter(ctx, tile_map.owners)
        await router.post_receives(tile_map.owned(ctx.rank))
        for tile_id in range(tile_map.num_tiles):
            if tile_map.owner(tile_id) == ctx.rank:
                continue
            await self._encode_and_push(
                ctx, router, image, tile_map, tile_id, states.get(tile_id)
            )
        outcome = await self._complete_owned(
            ctx, router, image, plan, view_dir, tile_map, start
        )
        await router.flush()
        return outcome

    async def run_fused(
        self,
        ctx: BaseRankContext,
        height: int,
        width: int,
        plan: PartitionPlan,
        view_dir: np.ndarray,
        render_tile,
    ) -> tuple[SubImage, CompositeOutcome]:
        """Render-overlapped run: tiles enter the router as they render.

        ``render_tile(image, rect)`` makes the rank image final inside
        ``rect`` by writing straight into its (blank) planes, and returns
        ``False`` when it can prove the tile blank without looking at
        pixels.  Tiles are requested in ascending id, i.e. row-major, so
        a renderer may finish a whole tile row on the first request of
        that row; each tile is pushed to its owner before the next is
        requested, so on real substrates communication overlaps the
        remaining rendering.  Returns ``(subimage, outcome)`` where
        ``subimage`` is the pristine assembled render (bit-identical to
        an unfused full render — rays are per-pixel independent).

        Fused accounting books everything to stage 0 (render charges no
        model time, matching the unfused render phase; the per-tile
        bound scans cannot precede a render that happens per tile).
        """
        self.check_plan(ctx, plan)
        frame = Rect.full(height, width)
        tile_map = build_tile_map(frame, self.tile, ctx.size)
        start = ctx.now()
        image = SubImage.blank(height, width)
        ctx.begin_stage(0)
        router = TileRouter(ctx, tile_map.owners)
        await router.post_receives(tile_map.owned(ctx.rank))
        for tile_id in range(tile_map.num_tiles):
            rect = tile_map.rect(tile_id)
            blank = not render_tile(image, rect)
            if tile_map.owner(tile_id) == ctx.rank:
                continue
            state = None
            if self.codec.needs_bound_scan:
                state = self.codec.make_state(image)
                await self.codec.scan_region(ctx, image, state, rect, blank=blank)
            await self._encode_and_push(ctx, router, image, tile_map, tile_id, state)
        subimage = image.copy()
        outcome = await self._complete_owned(
            ctx, router, image, plan, view_dir, tile_map, start
        )
        await router.flush()
        return subimage, outcome

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
        for tile_id in tile_map.owned(ctx.rank):
            rect = tile_map.rect(tile_id)
            part = RectPart(rect)
            raws = await router.collect(tile_id)
            rows, cols = rect.slices()
            planes: list = [None] * ctx.size
            planes[ctx.rank] = (
                image.intensity[rows, cols].copy(),
                image.opacity[rows, cols].copy(),
            )
            charged = 0
            for src, raw in zip(remote, raws):
                # The tile rect doubles as the decode metadata: tile
                # routing has no symmetric local send for this message,
                # so sender-side notes (a_send) record the addressed
                # tile's area — deterministic on every substrate.
                contrib = self.codec.decode(ctx, raw, part, rect, 0)
                planes[src] = densify_contribution(contrib, rect)
                charged += _contribution_pixels(contrib, rect)
            folded_i, folded_a, _ = fold_tile_planes(planes, plan, view_dir)
            image.intensity[rows, cols] = folded_i
            image.opacity[rows, cols] = folded_a
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
                # Copies only; no charges, so accounting is unchanged.
                ctx.progress.emit_tile(
                    rank=ctx.rank,
                    tile=tile_id,
                    rect=rect,
                    intensity=folded_i,
                    opacity=folded_a,
                    frame_pixels=image.num_pixels,
                    t=elapsed,
                )
        return CompositeOutcome(
            image=image,
            owned_indices=tile_map.owned_flat_indices(ctx.rank),
            producer=self.name,
        )
