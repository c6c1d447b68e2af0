"""Compositor framework shared by all compositing methods.

A compositor is an object whose :meth:`Compositor.run` coroutine executes
one rank's side of the compositing phase against the cluster substrate:
it reads the rank's rendered :class:`~repro.render.image.SubImage` (and
never writes it), exchanges messages with partners, charges modelled
computation, and returns a :data:`CompositeOutcome`: the
:class:`OwnedPiece`\\ s of the final image this rank ends up owning.

A piece is a part of the frame and that part's final pixels, the shape a
:class:`~repro.cluster.progress.ProgressEvent` carries:

* a :class:`~repro.compositing.schedule.RectPart` (BS, BSBR, BSBRC, and
  one per owned tile for tile-routed): the rank owns a contiguous image
  region that halves each stage;
* an :class:`~repro.compositing.schedule.IndexPart` (BSLC): the rank owns
  an interleaved section pattern of the flattened frame (the static
  load-balancing distribution of §3.3).

Either way the ownership invariant is the same: across ranks the owned
parts partition the image, and the owned pixels equal the sequential
depth-order composite.
"""

from __future__ import annotations

import abc
from typing import Any, NamedTuple

import numpy as np

from ..cluster.protocol import BaseRankContext
from ..errors import CompositingError
from ..render.image import SubImage
from ..types import Rect
from ..volume.partition import PartitionPlan
from .over import over, over_inplace

__all__ = [
    "Compositor",
    "CompositeOutcome",
    "OwnedPiece",
    "composite_at",
    "composite_masked",
    "composite_rect_pixels",
    "split_axis_for",
]


class OwnedPiece(NamedTuple):
    """One part of the final frame a rank owns, with its final pixels.

    ``part`` is a :class:`~repro.compositing.schedule.RectPart` or an
    :class:`~repro.compositing.schedule.IndexPart`; the planes hold the
    part's values only — a rect's ``(h, w)`` block, or an index part's
    values as one row in part order.
    """

    part: Any
    intensity: np.ndarray
    opacity: np.ndarray

    @classmethod
    def cut(cls, part, image: SubImage) -> "OwnedPiece":
        """Copies of full-frame ``image``'s values on ``part``."""
        shape = (part.rect.height, part.rect.width) if part.kind == "rect" else -1
        return cls(
            part,
            np.array(part.pixels(image.intensity)).reshape(shape),
            np.array(part.pixels(image.opacity)).reshape(shape),
        )


#: What one rank holds after the compositing phase: the pieces it owns
#: (one for a scheduled method, one per owned tile for tile-routed).
CompositeOutcome = tuple[OwnedPiece, ...]


class Compositor(abc.ABC):
    """Abstract compositing method (one instance drives every rank)."""

    #: Registry/reporting name, e.g. ``"bsbrc"``.
    name: str = "abstract"

    @abc.abstractmethod
    async def run(
        self,
        ctx: BaseRankContext,
        image: SubImage,
        plan: PartitionPlan,
        view_dir: np.ndarray,
    ) -> CompositeOutcome:
        """Execute this rank's side of the compositing phase.

        ``image`` is read, never written: a method that folds in place
        does so in working planes of its own.  ``plan`` and ``view_dir``
        supply the front/back decision for each pairwise *over*.
        """

    # ---- shared helpers ----------------------------------------------------
    @staticmethod
    def check_plan(ctx: BaseRankContext, plan: PartitionPlan) -> int:
        """Validate rank-count consistency; returns ``log2 P``."""
        if plan.num_ranks != ctx.size:
            raise CompositingError(
                f"partition plan is for {plan.num_ranks} ranks but the "
                f"machine has {ctx.size}"
            )
        return plan.num_stages

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(name={self.name!r})"


#: The split policies :func:`split_axis_for` knows.
SPLIT_POLICIES = ("longest", "alternate", "rows")


def split_axis_for(region: Rect, stage: int, policy: str) -> int:
    """Image-space split axis for the current region.

    ``policy``:

    * ``"longest"`` — split the longer side (keeps regions squarish; the
      default, and both partners agree since they share the region);
    * ``"alternate"`` — rows, columns, rows, ... (Ma et al.'s original
      scheme);
    * ``"rows"`` — always split rows.
    """
    if policy == "longest":
        return 0 if region.height >= region.width else 1
    if policy == "alternate":
        return stage % 2
    if policy == "rows":
        return 0
    raise CompositingError(f"unknown split policy {policy!r}")


def composite_rect_pixels(
    image: SubImage,
    rect: Rect,
    recv_i: np.ndarray,
    recv_a: np.ndarray,
    *,
    local_in_front: bool,
) -> None:
    """Composite a received rect block with the local pixels, in place.

    The fold writes straight into the rect's view of the planes, with
    :func:`over`'s float expression up to commuting operands of ``+``
    and ``*`` (exact in IEEE arithmetic), so it is bit-identical to
    ``over`` without its two full-block temporaries.
    """
    if rect.is_empty:
        return
    rows, cols = rect.slices()
    loc_i = image.intensity[rows, cols]
    loc_a = image.opacity[rows, cols]
    if local_in_front:
        trans = 1.0 - loc_a
        loc_i += trans * recv_i
        loc_a += trans * recv_a
    else:
        over_inplace(recv_i, recv_a, loc_i, loc_a)


def composite_at(
    image: SubImage,
    flat_targets: np.ndarray,
    recv_i: np.ndarray,
    recv_a: np.ndarray,
    *,
    local_in_front: bool,
) -> None:
    """Composite received pixels at frame indices ``flat_targets``, in place.

    The sparse fold of an index part's sequence and of a whole-frame RLE
    message; a rect's run-length payload folds through
    :func:`composite_masked`.
    """
    _fold_selected(
        image.intensity.reshape(-1),
        image.opacity.reshape(-1),
        flat_targets,
        recv_i,
        recv_a,
        local_in_front,
    )


def composite_masked(
    image: SubImage,
    rect: Rect,
    mask: np.ndarray,
    recv_i: np.ndarray,
    recv_a: np.ndarray,
    *,
    local_in_front: bool,
) -> None:
    """Composite received pixels at the ``True`` entries of ``mask``, in place.

    ``mask`` is ``rect``'s ``(height, width)`` non-blank mask and the
    received pixels are its entries in row-major order — a rect codec's
    run-length payload, folded through the rect's view of the planes.
    """
    rows, cols = rect.slices()
    _fold_selected(
        image.intensity[rows, cols],
        image.opacity[rows, cols],
        mask,
        recv_i,
        recv_a,
        local_in_front,
    )


def _fold_selected(plane_i, plane_a, where, recv_i, recv_a, local_in_front) -> None:
    """Gather ``plane[where]``, fold the received pixels, scatter back."""
    loc_i = plane_i[where]
    loc_a = plane_a[where]
    if local_in_front:
        out_i, out_a = over(loc_i, loc_a, recv_i, recv_a)
    else:
        out_i, out_a = over(recv_i, recv_a, loc_i, loc_a)
    plane_i[where] = out_i
    plane_a[where] = out_a
