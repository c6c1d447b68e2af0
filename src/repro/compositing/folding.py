"""Folded compositing: run any binary-swap method on non-power-of-two P.

:class:`FoldedCompositor` wraps one of the swap-structured methods
(BS/BSBR/BSLC/BSBRC).  Extra ranks ship their subimage (bounding-rect
packed — blanks outside the rect never travel) to their core buddy and
drop out; core ranks fold the received half in with one *over* and then
run the wrapped method unchanged on the power-of-two core group, seen
through a :class:`_GroupView` that reports the core group's size.

This implements the paper's first future-work item ("improve the
binary-swap compositing method running on any number of processors").

The same machinery powers graceful degradation: when ranks are lost
before compositing, :func:`~repro.volume.folded.refold_survivors` folds
a power-of-two bisection plan onto the survivors, and this compositor
runs the degraded pass unchanged (see ``DESIGN.md`` §5.4).
"""

from __future__ import annotations

import numpy as np

from ..cluster.context import RankContext
from ..cluster.stats import PRE_STAGE
from ..errors import CompositingError
from ..render.image import SubImage
from ..types import Rect
from ..volume.folded import FoldedPartition
from .base import CompositeOutcome, Compositor, OwnedPiece, composite_rect_pixels
from .schedule import RectPart
from .wire import pack_bsbr, unpack_bsbr

__all__ = ["FoldedCompositor"]

#: Tag for the pre-swap fold messages (outside stage-tag space).
_FOLD_TAG = 1 << 19


class _GroupView:
    """A rank's view restricted to the core communicator.

    A transparent proxy over any rank context (simulator or
    multiprocessing backend): same rank id — core ranks are exactly
    ``0..Q-1`` — but ``size`` reports ``Q`` so the wrapped method's stage
    count and peer validation see the core group only.
    """

    def __init__(self, base, group_size: int):
        self._base = base
        self._group_size = int(group_size)

    def __getattr__(self, name):
        return getattr(self._base, name)

    @property
    def size(self) -> int:
        return self._group_size


class FoldedCompositor(Compositor):
    """Wrap a swap-structured compositor to support any rank count."""

    def __init__(self, inner: Compositor):
        self.inner = inner
        self.name = f"folded-{inner.name}"

    async def run(
        self,
        ctx: RankContext,
        image: SubImage,
        plan: FoldedPartition,  # type: ignore[override]
        view_dir: np.ndarray,
    ) -> CompositeOutcome:
        if not isinstance(plan, FoldedPartition):
            raise CompositingError(
                "FoldedCompositor needs a FoldedPartition "
                "(build one with repro.volume.folded.partition_folded)"
            )
        if plan.num_ranks != ctx.size:
            raise CompositingError(
                f"folded partition is for {plan.num_ranks} ranks but the "
                f"machine has {ctx.size}"
            )
        core = plan.core_ranks
        ctx.begin_stage(PRE_STAGE)

        if plan.is_extra(ctx.rank):
            # Extra rank: ship the bounding rect of the subimage and exit.
            rect = image.bounding_rect()
            await ctx.charge_bound(image.num_pixels)
            msg = pack_bsbr(image.intensity, image.opacity, rect)
            await ctx.charge_pack(len(msg.buffer))
            buddy = plan.buddy_of_extra[ctx.rank]
            await ctx.send(buddy, msg.buffer, nbytes=msg.accounted_bytes, tag=_FOLD_TAG)
            return (OwnedPiece.cut(RectPart(Rect.empty()), image),)

        extra = plan.extra_of_core.get(ctx.rank)
        if extra is not None:
            raw = await ctx.recv(extra, tag=_FOLD_TAG)
            rect, recv_i, recv_a = unpack_bsbr(raw)
            if not rect.is_empty:
                image = image.copy()  # fold into planes of our own
                composite_rect_pixels(
                    image,
                    rect,
                    recv_i,  # type: ignore[arg-type]
                    recv_a,  # type: ignore[arg-type]
                    # The received half is the extra's (high side); local
                    # is in front iff the core's low half occludes it.
                    local_in_front=plan.core_in_front(ctx.rank, view_dir),
                )
                await ctx.charge_over(rect.area)

        if core == 1:
            return (OwnedPiece.cut(RectPart(image.full_rect()), image),)
        group_ctx = _GroupView(ctx, core)
        return await self.inner.run(group_ctx, image, plan.core_plan, view_dir)
