"""Related-work baselines from the paper's §2 (extensions beyond BS).

These are not part of the paper's measured comparison but are the
methods its related-work section positions against; having them in the
same harness lets the benchmarks answer "how far is BSBRC from the
*other* families?":

* :class:`DirectSend` — the *buffered case* (Hsu 1993, Neumann 1993):
  each rank owns a fixed image strip and receives every other rank's
  contribution for that strip in one shot, then composites the buffer in
  depth order.  Messages use bounding-rectangle packing (sparse-aware).
  :class:`DirectSendAsync` is the same body with the exchanges posted
  nonblocking up front.
* :class:`BinaryTreeCompression` — Ahrens & Painter 1998: binary-tree
  combining where the full subimage is RLE-compressed at each hop;
  senders drop out, rank 0 ends with the whole image.
* :class:`ParallelPipeline` — Lee et al. 1996 style ring pipeline over
  depth-sorted ranks.  Because *over* is order-sensitive, each traveling
  partial carries **two** accumulators (front-of-wrap and back-of-wrap
  runs of the depth order) that merge when the partial reaches its
  target strip — the standard trick for pipelining a non-commutative
  operator around a ring.

Why these stay classes rather than ``schedule:codec`` combos: no
symmetric pairwise schedule expresses them.  ``direct`` owns row strips
and folds a buffer back to front, so it is not bit-identical to
``direct-send:rect`` (which owns centerline-split regions and folds each
contribution as it arrives); ``tree`` is a one-way reduction whose
senders drop out; ``pipeline`` is a ring with two accumulators.
``direct`` and ``direct-async`` feed the ``ablation_async`` table;
``direct``, ``tree`` and ``pipeline`` feed ``ablation_baselines``
(``benchmarks/bench_ablations.py``).
"""

from __future__ import annotations

import numpy as np

from ..cluster.context import RankContext
from ..cluster.stats import PRE_STAGE
from ..errors import CompositingError, WireFormatError
from ..render.image import SubImage
from ..types import Rect
from ..volume.partition import PartitionPlan, depth_order
from .base import (CompositeOutcome, Compositor, OwnedPiece, composite_at,
                   composite_rect_pixels)
from .schedule import RectPart
from .rect import find_bounding_rect
from .wire import bsbr_nbytes, pack_bsbr, pack_rle, unpack_bsbr, unpack_rle
from .over import over

__all__ = ["DirectSend", "DirectSendAsync", "BinaryTreeCompression", "ParallelPipeline", "strip_rect"]


def strip_rect(height: int, width: int, rank: int, size: int) -> Rect:
    """Row strip of the final image owned by ``rank`` in buffered methods."""
    if not (0 <= rank < size):
        raise CompositingError(f"rank {rank} out of range for {size} strips")
    y0 = rank * height // size
    y1 = (rank + 1) * height // size
    return Rect(y0, 0, y1, width).normalized()


def _own_contribution(
    image: SubImage, rank: int, strip: Rect
) -> dict[int, tuple[Rect, np.ndarray, np.ndarray]]:
    """The buffered-case contribution map, seeded with this rank's own
    foreground in its strip (nothing when the strip is blank here)."""
    contributions = {}
    own_rect = find_bounding_rect(image.intensity, image.opacity, strip)
    if not own_rect.is_empty:
        rows, cols = own_rect.slices()
        contributions[rank] = (
            own_rect,
            image.intensity[rows, cols].copy(),
            image.opacity[rows, cols].copy(),
        )
    return contributions


async def _fold_buffered(
    ctx: RankContext,
    contributions: dict[int, tuple[Rect, np.ndarray, np.ndarray]],
    plan: PartitionPlan,
    view_dir: np.ndarray,
    strip: Rect,
) -> OwnedPiece:
    """Composite the buffered contributions back-to-front into a blank
    strip, then charge ``T_over`` once for every folded pixel."""
    shape = (strip.height, strip.width)
    result = SubImage(np.zeros(shape), np.zeros(shape))
    composited = 0
    for src in reversed(depth_order(plan, view_dir)):  # depth_order is front first
        entry = contributions.get(src)
        if entry is None:
            continue
        rect, block_i, block_a = entry
        # Every new contribution sits in front of everything folded so far.
        composite_rect_pixels(
            result, rect.shifted(-strip.y0, -strip.x0), block_i, block_a,
            local_in_front=False,
        )
        composited += rect.area
    await ctx.charge_over(composited)
    return OwnedPiece(RectPart(strip), result.intensity, result.opacity)


class DirectSend(Compositor):
    """Buffered-case direct send with bounding-rectangle packing.

    Every rank ships each peer the bounding rect of its foreground
    inside that peer's strip.  ``overlapped`` picks how the ``P-1``
    exchanges run: ``False`` runs ``P-1`` blocking XOR ``sendrecv``
    rounds (round ``r`` in stage ``r-1``, the fold in stage ``P-1``);
    :class:`DirectSendAsync` posts every irecv before the bound scan
    (both ``PRE_STAGE``), every isend in stage 0, waits in stage 1 and
    folds in stage 2.
    """

    name = "direct"
    #: Post isends/irecvs up front instead of running rendezvous rounds.
    overlapped = False

    async def run(
        self,
        ctx: RankContext,
        image: SubImage,
        plan: PartitionPlan,
        view_dir: np.ndarray,
    ) -> CompositeOutcome:
        self.check_plan(ctx, plan)
        size, rank = ctx.size, ctx.rank
        height, width = image.shape
        my_strip = strip_rect(height, width, rank, size)
        peers = [p for p in range(size) if p != rank]

        async def pack_for(peer: int):
            peer_strip = strip_rect(height, width, peer, size)
            send_rect = find_bounding_rect(image.intensity, image.opacity, peer_strip)
            msg = pack_bsbr(image.intensity, image.opacity, send_rect)
            await ctx.charge_pack(len(msg.buffer))
            return msg

        def accept(src: int, raw: bytes) -> None:
            recv_rect, recv_i, recv_a = unpack_bsbr(raw)
            if not my_strip.contains(recv_rect):
                raise CompositingError(
                    f"contribution rect {recv_rect} from {src} outside strip {my_strip}"
                )
            if not recv_rect.is_empty:
                contributions[src] = (recv_rect, recv_i, recv_a)

        ctx.begin_stage(PRE_STAGE)
        if self.overlapped:
            # Post every receive before doing any local work.
            recv_requests = [await ctx.irecv(src, tag=src) for src in peers]
        await ctx.charge_bound(image.num_pixels)  # one classification scan
        contributions = _own_contribution(image, rank, my_strip)

        if self.overlapped:
            ctx.begin_stage(0)
            send_requests = []
            for dst in peers:
                msg = await pack_for(dst)
                send_requests.append(
                    await ctx.isend(dst, msg.buffer, nbytes=msg.accounted_bytes, tag=rank)
                )
            ctx.begin_stage(1)
            payloads = await ctx.wait_all(recv_requests)
            await ctx.wait_all(send_requests)
            for src, raw in zip(peers, payloads):
                accept(src, raw)
            fold_stage = 2
        else:
            # P-1 pairwise exchange rounds (XOR schedule = perfect matchings).
            for rnd in range(1, size):
                ctx.begin_stage(rnd - 1)
                partner = rank ^ rnd
                msg = await pack_for(partner)
                raw = await ctx.sendrecv(partner, msg.buffer, nbytes=msg.accounted_bytes, tag=rnd)
                accept(partner, raw)
            fold_stage = size - 1

        ctx.begin_stage(fold_stage)
        return (await _fold_buffered(ctx, contributions, plan, view_dir, my_strip),)


class DirectSendAsync(DirectSend):
    """Direct send with nonblocking communication (latency hiding).

    Same buffered-case semantics as :class:`DirectSend`, but all ``P-1``
    contributions are posted as isends/irecvs up front so transfers
    overlap each other and the local bounding-rectangle scans, instead
    of paying ``P-1`` serialized rendezvous rounds.  Incoming messages
    still serialize on the receiver's link (the simulator models one NIC
    per node), so the win is start-up/skew hiding, not magic bandwidth.
    """

    name = "direct-async"
    overlapped = True


class BinaryTreeCompression(Compositor):
    """Ahrens & Painter binary-tree combining with mask-RLE messages."""

    name = "tree"

    async def run(
        self,
        ctx: RankContext,
        image: SubImage,
        plan: PartitionPlan,
        view_dir: np.ndarray,
    ) -> CompositeOutcome:
        stages = self.check_plan(ctx, plan)
        rank = ctx.rank
        num_pixels = image.num_pixels
        work = image  # becomes a copy of our own before the first fold

        for stage in range(stages):
            ctx.begin_stage(stage)
            group = 1 << (stage + 1)
            span = 1 << stage
            if rank % group == span:
                # Sender: compress the whole current image and drop out.
                peer = rank - span
                msg = pack_rle(work.intensity.ravel(), work.opacity.ravel())
                await ctx.charge_encode(num_pixels)
                await ctx.charge_pack(len(msg.buffer))
                await ctx.send(peer, msg.buffer, nbytes=msg.accounted_bytes, tag=stage)
                return (OwnedPiece.cut(RectPart(Rect.empty()), work),)
            if rank % group == 0:
                peer = rank + span
                raw = await ctx.recv(peer, tag=stage)
                mask, recv_i, recv_a = unpack_rle(raw, num_pixels)
                positions = np.flatnonzero(mask)
                if positions.size:
                    if work is image:
                        work = image.copy()
                    composite_at(
                        work,
                        positions,
                        recv_i,
                        recv_a,
                        local_in_front=plan.local_in_front(rank, stage, view_dir),
                    )
                    await ctx.charge_over(positions.size)
        return (OwnedPiece.cut(RectPart(work.full_rect()), work),)


class ParallelPipeline(Compositor):
    """Ring pipeline over depth-sorted ranks with dual accumulators."""

    name = "pipeline"

    async def run(
        self,
        ctx: RankContext,
        image: SubImage,
        plan: PartitionPlan,
        view_dir: np.ndarray,
    ) -> CompositeOutcome:
        self.check_plan(ctx, plan)
        size, rank = ctx.size, ctx.rank
        height, width = image.shape
        order = depth_order(plan, view_dir)  # order[0] = front-most rank
        pos = order.index(rank)
        deeper = order[(pos + 1) % size]  # ring successor (next deeper, wraps)
        shallower = order[(pos - 1) % size]

        ctx.begin_stage(PRE_STAGE)
        await ctx.charge_bound(image.num_pixels)

        if size == 1:
            return (OwnedPiece.cut(RectPart(image.full_rect()), image),)

        # Partial for strip s is created at position (s+1) % size and ends
        # at position s after size-1 transfers.  A partial carries two
        # accumulators: 'back' covers the depth-contiguous run of visited
        # positions before the ring wrap, 'front' the run after it.
        def new_partial(strip_pos: int) -> "_Partial":
            strip = strip_rect(height, width, strip_pos, size)
            partial = _Partial(strip)
            partial.fold_own(image, pos, creator=(strip_pos + 1) % size)
            return partial

        current = new_partial((pos - 1) % size)
        await ctx.charge_over(current.last_fold_area)

        result: _Partial | None = None
        for step in range(1, size):
            ctx.begin_stage(step - 1)
            send_buf = current.pack()
            await ctx.charge_pack(len(send_buf.buffer))
            # Ring shift with blocking rendezvous: odd/even positions
            # alternate send-first / recv-first to avoid a send cycle.
            if pos % 2 == 0:
                await ctx.send(deeper, send_buf.buffer, nbytes=send_buf.accounted_bytes, tag=step)
                raw = await ctx.recv(shallower, tag=step)
            else:
                raw = await ctx.recv(shallower, tag=step)
                await ctx.send(deeper, send_buf.buffer, nbytes=send_buf.accounted_bytes, tag=step)

            strip_pos = (pos - 1 - step) % size
            current = _Partial.unpack(raw, strip_rect(height, width, strip_pos, size))
            current.fold_own(image, pos, creator=(strip_pos + 1) % size)
            await ctx.charge_over(current.last_fold_area)
            if strip_pos == pos:
                result = current
        assert result is not None

        merged_i, merged_a = result.merge()
        await ctx.charge_over(result.strip.area)
        return (OwnedPiece(RectPart(result.strip), merged_i, merged_a),)


class _Partial:
    """Traveling pipeline partial: front/back strip accumulators."""

    def __init__(self, strip: Rect):
        self.strip = strip
        h, w = strip.height, strip.width
        self.front_i = np.zeros((h, w), dtype=np.float64)
        self.front_a = np.zeros((h, w), dtype=np.float64)
        self.back_i = np.zeros((h, w), dtype=np.float64)
        self.back_a = np.zeros((h, w), dtype=np.float64)
        self.last_fold_area = 0

    def fold_own(self, image: SubImage, pos: int, creator: int) -> None:
        """Fold this rank's own strip pixels into the proper accumulator.

        Positions ``creator..P-1`` accumulate into ``back``; after the
        ring wraps, positions ``0..creator-1`` accumulate into ``front``.
        Within each run folds happen shallow-to-deep, so the new
        contribution always composites *under* the accumulator.
        """
        rect = find_bounding_rect(image.intensity, image.opacity, self.strip)
        self.last_fold_area = rect.area
        if rect.is_empty:
            return
        rows, cols = rect.slices()
        mine_i = image.intensity[rows, cols]
        mine_a = image.opacity[rows, cols]
        local = rect.shifted(-self.strip.y0, -self.strip.x0)
        lrows, lcols = local.slices()
        if pos >= creator:
            acc_i, acc_a = self.back_i, self.back_a
        else:
            acc_i, acc_a = self.front_i, self.front_a
        out_i, out_a = over(acc_i[lrows, lcols], acc_a[lrows, lcols], mine_i, mine_a)
        acc_i[lrows, lcols] = out_i
        acc_a[lrows, lcols] = out_a

    def merge(self) -> tuple[np.ndarray, np.ndarray]:
        """front over back — the finished strip."""
        return over(self.front_i, self.front_a, self.back_i, self.back_a)

    # ---- wire -------------------------------------------------------------
    def pack(self):
        from .wire import WireMessage

        front = pack_bsbr(self.front_i, self.front_a, self._rect_of(self.front_i, self.front_a))
        back = pack_bsbr(self.back_i, self.back_a, self._rect_of(self.back_i, self.back_a))
        return WireMessage(
            buffer=front.buffer + back.buffer,
            accounted_bytes=front.accounted_bytes + back.accounted_bytes,
        )

    def _rect_of(self, plane_i: np.ndarray, plane_a: np.ndarray) -> Rect:
        return find_bounding_rect(plane_i, plane_a, None)

    @staticmethod
    def unpack(raw: bytes, strip: Rect) -> "_Partial":
        partial = _Partial(strip)

        def _read(offset: int, into_i: np.ndarray, into_a: np.ndarray) -> int:
            length = bsbr_nbytes(raw, offset)
            got_rect, block_i, block_a = unpack_bsbr(raw[offset : offset + length])
            if not got_rect.is_empty:
                # Accumulator planes are strip-local, and so was the rect
                # computed by pack(): index directly.
                rows, cols = got_rect.slices()
                into_i[rows, cols] = block_i
                into_a[rows, cols] = block_a
            return offset + length

        offset = _read(0, partial.front_i, partial.front_a)
        offset = _read(offset, partial.back_i, partial.back_a)
        if offset != len(raw):
            raise WireFormatError("pipeline partial has trailing bytes")
        return partial
