"""Pixel codecs — the *what crosses the wire* plane of compositing.

A :class:`PixelCodec` turns an image part (rect or interleaved index
set, see :mod:`repro.compositing.schedule`) into a wire message and
back, and charges the paper's cost model for the work the encoding
implies: ``encode`` packs, :meth:`PixelCodec.charge_encode` prices the
RLE scan (``T_encode``), :meth:`PixelCodec.scan` prices the initial
bounding-rectangle pass (``T_bound``), and :meth:`PixelCodec.composite`
returns the pixel count the engine charges to ``T_over``.  The byte
layouts and charge sequences replicate the four paper methods exactly,
so routing BS/BSBR/BSLC/BSBRC through the generic engine leaves every
per-stage byte, message and counter value bit-for-bit unchanged.

Implementations: :class:`RawCodec` (BS), :class:`BoundingRectCodec`
(BSBR), :class:`RunLengthCodec` (BSLC's sequence RLE, also usable over
rect parts), :class:`RectRLECodec` (BSBRC), and :class:`ValueRunCodec`
(the Ahrens & Painter value-run comparator, ``bslcv``).  Stateless
codecs are shared across ranks; per-run mutable state (the tracked
local bounding rectangle) lives in the object
:meth:`PixelCodec.make_state` returns.

A part addresses the frame itself: encoders read ``part.pixels(plane)``,
and :meth:`PixelCodec.composite` folds a decoded :class:`Contribution`
(rect-dense, rect-sparse or sequence) back in.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..cluster.protocol import BaseRankContext
from ..errors import CompositingError
from ..render.image import SubImage
from ..types import Rect
from .base import composite_at, composite_masked, composite_rect_pixels
from .over import nonblank_mask
from .schedule import IndexPart, RectPart
from .value_rle import pack_value_runs, unpack_value_runs
from .wire import (
    WireMessage,
    pack_bsbr,
    pack_bsbrc,
    pack_pixels,
    pack_rle,
    unpack_bsbr,
    unpack_bsbrc,
    unpack_pixels,
    unpack_rle,
)

__all__ = [
    "Contribution",
    "PixelCodec",
    "RawCodec",
    "BoundingRectCodec",
    "RunLengthCodec",
    "RectRLECodec",
    "ValueRunCodec",
]


@dataclass(eq=False)
class Contribution:
    """Decoded pixels received from one peer.

    ``rect`` carries the geometry for rect payloads (``None``: the
    values run over the kept index sequence).  A sparse payload names
    its non-blank pixels by ``mask``, the rect's ``(height, width)``
    boolean mask, or by ``positions``, offsets into the kept sequence;
    neither set means the values are dense over the rect or part.
    """

    rect: Rect | None = None
    positions: np.ndarray | None = None
    mask: np.ndarray | None = None
    values_i: np.ndarray | None = None
    values_a: np.ndarray | None = None


class PixelCodec(abc.ABC):
    """Serialize image parts and charge the matching model costs."""

    #: Registry name, e.g. ``"rect-rle"``.
    name: str = "abstract"
    #: One-line description for the method catalog.
    description: str = ""
    #: Part kinds this codec can carry.
    supports: frozenset[str] = frozenset({"rect", "index"})
    #: Whether the codec opens with a full-image bounding-rect scan
    #: (``T_bound``, charged to the pre-stage bucket).
    needs_bound_scan: bool = False

    def make_state(self, image: SubImage) -> Any:
        """Per-run mutable codec state (``None`` for stateless codecs)."""
        return None

    async def scan(self, ctx: BaseRankContext, image: SubImage, state: Any) -> None:
        """Pre-stage scan; only called when ``needs_bound_scan``."""

    async def scan_region(
        self,
        ctx: BaseRankContext,
        image: SubImage,
        state: Any,
        rect: Rect,
        *,
        blank: bool = False,
    ) -> None:
        """Regional variant of :meth:`scan` for tile-grained engines.

        Only called when ``needs_bound_scan``; charges ``T_bound`` for
        the region's pixels.  Summed over a partition of the frame the
        total charge equals one whole-image :meth:`scan`.  ``blank``
        is the caller's proof that the region holds no foreground: the
        modelled scan is charged all the same, only the host skips
        looking.
        """

    @abc.abstractmethod
    def encode(
        self, image: SubImage, part: RectPart | IndexPart, state: Any
    ) -> tuple[WireMessage, Any]:
        """Pack ``part``; returns the message plus opaque send metadata."""

    async def charge_encode(
        self, ctx: BaseRankContext, part: RectPart | IndexPart, meta: Any
    ) -> None:
        """Price the encoding scan (no-op for codecs that do not scan)."""

    @abc.abstractmethod
    def decode(
        self,
        ctx: BaseRankContext,
        raw: bytes,
        keep: RectPart | IndexPart,
        meta: Any,
        stage: int,
    ) -> Contribution:
        """Parse a received message; emits the method's stat notes."""

    def composite(
        self,
        image: SubImage,
        keep: RectPart | IndexPart,
        contrib: Contribution,
        local_in_front: bool,
    ) -> int:
        """Fold a contribution into ``image``; returns pixels charged.

        Only pixels the message carried are folded and charged: the
        non-blank pixels of a sparse payload, the whole (possibly empty)
        rect of a dense one.
        """
        rect = contrib.rect
        if rect is not None and rect.is_empty:
            return 0
        if rect is not None and contrib.mask is None:
            composite_rect_pixels(
                image,
                rect,
                contrib.values_i.reshape(rect.height, rect.width),
                contrib.values_a.reshape(rect.height, rect.width),
                local_in_front=local_in_front,
            )
            return rect.area
        count = contrib.values_i.size
        if not count:
            return 0
        if rect is None:
            composite_at(
                image,
                keep.flat(contrib.positions),
                contrib.values_i,
                contrib.values_a,
                local_in_front=local_in_front,
            )
        else:
            composite_masked(
                image,
                rect,
                contrib.mask,
                contrib.values_i,
                contrib.values_a,
                local_in_front=local_in_front,
            )
        return count

    def update_state(
        self, state: Any, keep: RectPart | IndexPart, contribs: list[Contribution]
    ) -> None:
        """Refresh codec state after a stage completes."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(name={self.name!r})"


# --------------------------------------------------------------------------
# raw — every pixel of the part, blanks included (BS)
# --------------------------------------------------------------------------
class RawCodec(PixelCodec):
    """Ship the whole part, blank or not (paper BS, eq. (2))."""

    name = "raw"
    description = "raw pixels, blanks included"

    def encode(self, image, part, state):
        return pack_pixels(part.pixels(image.intensity), part.pixels(image.opacity)), None

    def decode(self, ctx, raw, keep, meta, stage):
        recv_i, recv_a = unpack_pixels(raw, keep.num_pixels)
        return Contribution(rect=keep.rect, values_i=recv_i, values_a=recv_a)


# --------------------------------------------------------------------------
# bounding rect — track and clip the local foreground rect (BSBR)
# --------------------------------------------------------------------------
class _TrackedRectState:
    """The local bounding rectangle a rect codec maintains per run."""

    __slots__ = ("local_rect",)

    def __init__(self) -> None:
        self.local_rect = Rect.empty()


class _TrackedRectCodec(PixelCodec):
    """Shared machinery of the rect-tracking codecs (BSBR / BSBRC).

    The initial full scan finds the local bounding rectangle
    (``T_bound``); each encode clips it to the sending part; after a
    stage the rectangle refreshes as (kept part ∩ local) ∪ received
    rects — the paper's O(1) update, never a rescan.
    """

    supports = frozenset({"rect"})
    needs_bound_scan = True

    def make_state(self, image):
        return _TrackedRectState()

    async def scan(self, ctx, image, state):
        state.local_rect = image.bounding_rect()
        await ctx.charge_bound(image.num_pixels)

    async def scan_region(self, ctx, image, state, rect, *, blank=False):
        # Tile-grained scan: the tracked rect covers only this region's
        # foreground, which clips *tighter* than (whole-image rect ∩
        # region) — fewer bytes ship, and the per-region charges sum to
        # exactly one whole-image scan.
        state.local_rect = Rect.empty() if blank else image.bounding_rect(rect)
        await ctx.charge_bound(rect.area)

    def update_state(self, state, keep, contribs):
        rect = state.local_rect.intersect(keep.rect)
        for contrib in contribs:
            rect = rect.union(contrib.rect)
        state.local_rect = rect

    def _check_inside(self, recv_rect: Rect, keep: RectPart, stage: int) -> None:
        if not keep.rect.contains(recv_rect):
            raise CompositingError(
                f"stage {stage}: received rect {recv_rect} outside kept half {keep.rect}"
            )


class BoundingRectCodec(_TrackedRectCodec):
    """Ship only the part's foreground bounding rectangle (BSBR, eq. (4))."""

    name = "rect"
    description = "bounding rectangle of the non-blank pixels"

    def encode(self, image, part, state):
        send_rect = state.local_rect.intersect(part.rect)
        return pack_bsbr(image.intensity, image.opacity, send_rect), send_rect

    def decode(self, ctx, raw, keep, meta, stage):
        recv_rect, recv_i, recv_a = unpack_bsbr(raw)
        self._check_inside(recv_rect, keep, stage)
        ctx.note("a_rec", recv_rect.area)
        ctx.note("a_send", meta.area)
        if recv_rect.is_empty:
            ctx.note("empty_recv_rect")
        if meta.is_empty:
            ctx.note("empty_send_rect")
        return Contribution(rect=recv_rect, values_i=recv_i, values_a=recv_a)


class RectRLECodec(_TrackedRectCodec):
    """Bounding rect + RLE of its blank mask (BSBRC, eq. (8))."""

    name = "rect-rle"
    description = "bounding rectangle with RLE of its blank mask"

    def encode(self, image, part, state):
        send_rect = state.local_rect.intersect(part.rect)
        return pack_bsbrc(image.intensity, image.opacity, send_rect), send_rect

    async def charge_encode(self, ctx, part, meta):
        # The RLE scan touches every pixel of the (clipped) sending rect.
        await ctx.charge_encode(meta.area)

    def decode(self, ctx, raw, keep, meta, stage):
        recv_rect, mask, recv_i, recv_a = unpack_bsbrc(raw)
        self._check_inside(recv_rect, keep, stage)
        ctx.note("a_rec", recv_rect.area)
        ctx.note("a_send", meta.area)
        ctx.note("a_opaque", 0 if recv_i is None else recv_i.size)
        if not recv_rect.is_empty:
            ctx.note("r_code", int.from_bytes(raw[8:12], "little"))
        else:
            ctx.note("empty_recv_rect")
        if meta.is_empty:
            ctx.note("empty_send_rect")
        return Contribution(rect=recv_rect, mask=mask, values_i=recv_i, values_a=recv_a)


# --------------------------------------------------------------------------
# run-length — RLE over the whole part, no rect tracking (BSLC)
# --------------------------------------------------------------------------
class RunLengthCodec(PixelCodec):
    """RLE the part's blank mask; only non-blank pixels ship (eq. (6)).

    Over index parts this is exactly BSLC's sequence codec.  Over rect
    parts the same layout applies to the rect's row-major pixels (the
    receiver knows the region, so no rect info ships) — the encoder
    scans the *whole* part each stage, which is the method's documented
    ``T_encode`` weakness.
    """

    name = "rle"
    description = "run-length encoded blank mask, non-blank pixels only"

    def encode(self, image, part, state):
        return pack_rle(part.pixels(image.intensity), part.pixels(image.opacity)), None

    async def charge_encode(self, ctx, part, meta):
        # The RLE scan touches every pixel of the sending part.
        await ctx.charge_encode(part.num_pixels)

    def decode(self, ctx, raw, keep, meta, stage):
        mask, recv_i, recv_a = unpack_rle(raw, keep.num_pixels)
        ctx.note("r_code", int.from_bytes(raw[:4], "little"))
        ctx.note("a_opaque", recv_i.size)
        rect = keep.rect
        if rect is None:
            return Contribution(
                positions=np.flatnonzero(mask), values_i=recv_i, values_a=recv_a
            )
        return Contribution(
            rect=rect,
            mask=mask.reshape(rect.height, rect.width),
            values_i=recv_i,
            values_a=recv_a,
        )


# --------------------------------------------------------------------------
# value runs — the related-work comparator (bslcv)
# --------------------------------------------------------------------------
class ValueRunCodec(RunLengthCodec):
    """Ahrens & Painter value runs over an index part's sequence.

    The comparator the paper's §3.3 argues against for volume rendering:
    on floating-point pixels the value runs degenerate to one run per
    non-blank pixel (18 bytes each vs the mask RLE's 16 + amortized
    2-byte codes; :mod:`~repro.compositing.value_rle`).  The encoder
    scans the whole sending part like :class:`RunLengthCodec`; blanks
    ship inside runs, and since a blank received pixel is an
    *over*-identity only the non-blank ones fold and charge ``T_over``.
    """

    name = "value-rle"
    description = "value run-length coding (Ahrens & Painter)"
    supports = frozenset({"index"})

    def encode(self, image, part, state):
        return pack_value_runs(part.pixels(image.intensity), part.pixels(image.opacity)), None

    def decode(self, ctx, raw, keep, meta, stage):
        recv_i, recv_a = unpack_value_runs(raw, keep.num_pixels)
        ctx.note("value_runs", int.from_bytes(raw[:4], "little"))
        mask = nonblank_mask(recv_i, recv_a)
        positions = np.flatnonzero(mask)
        ctx.note("a_opaque", positions.size)
        return Contribution(
            positions=positions, values_i=recv_i[mask], values_a=recv_a[mask]
        )
