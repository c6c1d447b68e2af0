"""Compositor framework shared by all compositing methods.

A compositor is an object whose :meth:`Compositor.run` coroutine executes
one rank's side of the compositing phase against the cluster substrate:
it consumes the rank's rendered :class:`~repro.render.image.SubImage`,
exchanges messages with partners, charges modelled computation, and
returns a :class:`CompositeOutcome` describing the disjoint portion of
the final image this rank ends up owning.

Two ownership representations exist:

* *rect-based* (BS, BSBR, BSBRC): the rank owns a contiguous image
  region that halves each stage;
* *index-based* (BSLC): the rank owns an interleaved set of flat pixel
  indices (the static load-balancing distribution of §3.3).

Either way ``finalize``/ownership invariants are the same: across ranks
the owned sets partition the image, and the owned pixels equal the
sequential depth-order composite.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

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
    "composite_at",
    "composite_masked",
    "composite_rect_pixels",
    "split_axis_for",
]


@dataclass
class CompositeOutcome:
    """What one rank holds after the compositing phase.

    ``image`` is the rank's full-frame buffer whose *owned* portion
    carries final pixels.  Exactly one of ``owned_rect`` /
    ``owned_indices`` is set.
    """

    image: SubImage
    owned_rect: Rect | None = None
    owned_indices: np.ndarray | None = None
    #: Name of the compositor that produced this outcome (diagnostics;
    #: optional, filled in by the pipeline when the method omits it).
    producer: str | None = None

    def __post_init__(self) -> None:
        if (self.owned_rect is None) == (self.owned_indices is None):
            got = "both" if self.owned_rect is not None else "neither"
            who = f" (from compositor {self.producer!r})" if self.producer else ""
            raise CompositingError(
                f"exactly one of owned_rect / owned_indices must be provided; "
                f"got {got}{who}"
            )

    @property
    def owned_pixel_count(self) -> int:
        if self.owned_rect is not None:
            return self.owned_rect.area
        indices = np.asarray(self.owned_indices)
        if indices.size == 0:
            # An empty index set is valid ownership (e.g. a fully-sent
            # sequence); a 0-d or 0-length array must count as 0, not
            # trip over a missing shape[0].
            return 0
        return int(indices.shape[0])

    def owned_values(self) -> tuple[np.ndarray, np.ndarray]:
        """Flat ``(intensity, opacity)`` arrays of the owned pixels."""
        if self.owned_rect is not None:
            rows, cols = self.owned_rect.slices()
            return (
                self.image.intensity[rows, cols].ravel().copy(),
                self.image.opacity[rows, cols].ravel().copy(),
            )
        flat_i = self.image.intensity.ravel()
        flat_a = self.image.opacity.ravel()
        idx = self.owned_indices
        return flat_i[idx].copy(), flat_a[idx].copy()


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

        ``image`` may be mutated in place and becomes the outcome's
        buffer.  ``plan`` and ``view_dir`` supply the front/back decision
        for each pairwise *over*.
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
