"""The generic exchange engine: run any schedule × codec pair.

:class:`ScheduledCompositor` is the single run loop behind every
composed method.  The schedule decides *who swaps what* (partners, kept
parts, depth order of the folds); the codec decides *what crosses the
wire* (serialization plus the matching ``T_bound``/``T_encode``/
``T_over`` charges).  The engine sequences them exactly as the paper's
method listings do — encode, charge, exchange, decode, composite,
refresh state — so the four paper methods expressed as combos price
identically to their original hand-written loops, while new points of
the design space (``radix-k:rect-rle``, ``direct-send:rle``, ...) come
for free.

Per stage the engine encodes every outgoing part first (sends must
snapshot the pre-stage image — contributions fold in only after all of
the stage's exchanges), runs the grouped exchange
(:func:`repro.cluster.collectives.exchange_grouped`), then folds the
decoded contributions in the schedule's depth order, charging ``T_over``
per non-empty fold.

The caller's planes are read, never written.  Stage 0 bound-scans and
encodes straight from them; only then does the engine allocate working
planes (uninitialised, full-frame addressed) and copy stage 0's keep
part in.  Every later read and write stays inside the current keep part.
The outcome is one :class:`~repro.compositing.base.OwnedPiece`.
"""

from __future__ import annotations

import numpy as np

from ..cluster.collectives import exchange_grouped
from ..cluster.protocol import BaseRankContext
from ..cluster.stats import PRE_STAGE
from ..errors import ConfigurationError
from ..render.image import SubImage
from ..volume.partition import PartitionPlan
from .base import CompositeOutcome, Compositor, OwnedPiece
from .codec import PixelCodec
from .schedule import Schedule

__all__ = ["ScheduledCompositor"]


class ScheduledCompositor(Compositor):
    """Generic compositor running a :class:`Schedule` × :class:`PixelCodec`."""

    def __init__(self, schedule: Schedule, codec: PixelCodec, *, name: str | None = None):
        if schedule.part_kind not in codec.supports:
            raise ConfigurationError(
                f"codec {codec.name!r} cannot carry the {schedule.part_kind!r} "
                f"parts of schedule {schedule.name!r} "
                f"(codec supports: {sorted(codec.supports)})"
            )
        self.schedule = schedule
        self.codec = codec
        self.name = name or f"{schedule.name}:{codec.name}"

    def refold_pairs(self, size: int) -> list[tuple[int, int]]:
        """Fold pairing for graceful degradation, keyed off the schedule."""
        return self.schedule.refold_pairs(size)

    async def run(
        self,
        ctx: BaseRankContext,
        image: SubImage,
        plan: PartitionPlan,
        view_dir: np.ndarray,
    ) -> CompositeOutcome:
        self.check_plan(ctx, plan)
        codec = self.codec
        program = self.schedule.program(
            ctx.rank, ctx.size, image.full_rect(), image.num_pixels, plan, view_dir
        )
        # Stage-level recovery: an installed checkpointer loads the
        # resume-point snapshot (the keep part's planes, codec state, and
        # the already-accounted stage buckets) so the loop below replays
        # only the stages after it — the restored counters keep their
        # original deterministic values, which is what makes a resumed
        # run's byte/message accounting bit-identical to a clean one.
        checkpointer = getattr(ctx, "checkpointer", None)
        snapshot = (
            checkpointer.restore(self.name) if checkpointer is not None else None
        )
        work = None
        if snapshot is not None:
            state = snapshot.codec_state
            resume_after = snapshot.stage
            ctx.stats.stages.clear()
            ctx.stats.stages.update(snapshot.stats.stages)
            keep = next(s.keep_part for s in program.stages if s.index == resume_after)
            work = _working_planes(image, keep, snapshot.intensity, snapshot.opacity)
        else:
            resume_after = None
            state = codec.make_state(image)
            if codec.needs_bound_scan:
                ctx.begin_stage(PRE_STAGE)
                await codec.scan(ctx, image, state)

        # Live progress: a feed installed on the context receives a
        # bit-exact partial frame after every completed exchange stage —
        # the same keep-part piece the checkpointer snapshots.  Cutting
        # the piece copies pixels and charges nothing.
        progress = ctx.progress
        start = ctx.now()
        num_stages = len(program.stages)
        for ordinal, stage in enumerate(program.stages):
            if resume_after is not None and stage.index <= resume_after:
                continue
            ctx.begin_stage(stage.index)
            source = image if work is None else work
            sends: list[tuple[int, bytes, int]] = []
            metas: list[object] = []
            for step in stage.steps:
                msg, meta = codec.encode(source, step.send_part, state)
                await codec.charge_encode(ctx, step.send_part, meta)
                if msg.buffer:
                    # Zero-byte packs charge nothing (add_counter drops
                    # zero counts), so skipping the simulator round-trip
                    # is accounting-identical and saves a step per empty
                    # message at scale.
                    await ctx.charge_pack(len(msg.buffer))
                sends.append((step.peer, msg.buffer, msg.accounted_bytes))
                metas.append(meta)
            raws = await exchange_grouped(ctx, sends, tag=stage.index)
            contribs = [
                codec.decode(ctx, raw, stage.keep_part, meta, stage.index)
                for raw, meta in zip(raws, metas)
            ]
            keep = stage.keep_part
            if work is None:
                work = _working_planes(
                    image, keep, keep.pixels(image.intensity), keep.pixels(image.opacity)
                )
            for slot, local_in_front in stage.composite_order:
                folded = codec.composite(work, keep, contribs[slot], local_in_front)
                if folded:
                    await ctx.charge_over(folded)
            codec.update_state(state, keep, contribs)
            if checkpointer is None and progress is None:
                continue
            piece = OwnedPiece.cut(keep, work)
            if checkpointer is not None:
                checkpointer.save(stage.index, piece, state, ctx.stats, self.name)
            if progress is not None:
                progress.emit_stage(
                    rank=ctx.rank,
                    stage=stage.index,
                    ordinal=ordinal,
                    num_stages=num_stages,
                    num_ranks=ctx.size,
                    piece=piece,
                    t=ctx.now() - start,
                )

        return (OwnedPiece.cut(program.final_part, image if work is None else work),)


def _working_planes(image: SubImage, keep, intensity, opacity) -> SubImage:
    """Uninitialised full-frame planes shaped like ``image``, holding
    ``keep``'s pixels only."""
    work = SubImage(np.empty_like(image.intensity), np.empty_like(image.opacity))
    keep.put(work.intensity, intensity)
    keep.put(work.opacity, opacity)
    return work
