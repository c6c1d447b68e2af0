"""Recursive-bisection volume partitioning (the sort-last first phase).

The volume is split in half ``log2 P`` times; rank bit ``log2(P)-1-j``
selects the half taken at split level ``j`` (level 0 = root split).  This
bit order is chosen so that binary-swap partners at compositing stage
``k`` — ranks differing in bit ``k`` — are exactly the two subtrees of a
level-``log2(P)-1-k`` split: a single axis-aligned plane separates their
subvolumes, which is what makes the pairwise *over* order well defined
(Ma et al. 1994).

:class:`PartitionPlan` records, per rank and per compositing stage, the
separating plane's axis and which side the rank is on, and answers the
question every compositing method asks each stage: *is my data in front
of my partner's for this view direction?*
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cluster.hypercube import is_power_of_two, log2_int
from ..errors import PartitionError
from ..types import Extent3

__all__ = ["PartitionPlan", "recursive_bisect", "depth_order", "render_load_weights"]

_AXIS_NAMES = ("x", "y", "z")


@dataclass(frozen=True)
class PartitionPlan:
    """Result of recursively bisecting a volume over ``P`` ranks.

    Attributes
    ----------
    shape:
        The partitioned volume's voxel shape.
    extents:
        Per-rank subvolume extents (index ``r`` for rank ``r``).
    stage_axes:
        ``stage_axes[r][k]`` is the volume axis (0/1/2) of the plane
        separating rank ``r``'s group from its stage-``k`` partner's
        group.  Partners always agree on this value by construction.
    """

    shape: tuple[int, int, int]
    extents: tuple[Extent3, ...]
    stage_axes: tuple[tuple[int, ...], ...]

    @property
    def num_ranks(self) -> int:
        return len(self.extents)

    @property
    def num_stages(self) -> int:
        return log2_int(self.num_ranks)

    def extent(self, rank: int) -> Extent3:
        return self.extents[rank]

    def separating_axis(self, rank: int, stage: int) -> int:
        """Volume axis of the plane separating the stage-``k`` pair groups."""
        return self.stage_axes[rank][stage]

    def rank_is_low(self, rank: int, stage: int) -> bool:
        """True when ``rank``'s group is on the low-coordinate side."""
        return (rank >> stage) & 1 == 0

    def local_in_front(self, rank: int, stage: int, view_dir: np.ndarray) -> bool:
        """Whether ``rank``'s group occludes its partner's for ``view_dir``.

        ``view_dir`` points *away from the eye* into the scene.  The
        low-coordinate side is in front iff the ray travels toward
        +axis.  A perpendicular view (``view_dir[axis] == 0``) means the
        groups project side by side and cannot overlap; the low side is
        returned as "front" purely as a deterministic tie-break.
        """
        axis = self.separating_axis(rank, stage)
        low_in_front = float(view_dir[axis]) >= 0.0
        return self.rank_is_low(rank, stage) == low_in_front

    def describe(self) -> str:
        lines = [f"PartitionPlan P={self.num_ranks} over {self.shape}:"]
        for rank, ext in enumerate(self.extents):
            axes = "".join(_AXIS_NAMES[a] for a in self.stage_axes[rank])
            lines.append(f"  rank {rank:3d}: extent {ext.shape} at {ext.lo().astype(int)} stage-axes {axes}")
        return "\n".join(lines)


def recursive_bisect(
    shape: tuple[int, int, int],
    num_ranks: int,
    *,
    axis_policy: str = "longest",
    weights: np.ndarray | None = None,
) -> PartitionPlan:
    """Partition ``shape`` into ``num_ranks`` blocks by recursive bisection.

    ``axis_policy`` selects the split axis at each node: ``"longest"``
    (default, balances block aspect ratios) or ``"cycle"`` (x, y, z in
    turn — the classic k-d order).

    ``weights`` (optional, same shape as the volume) makes each split
    fall at the *weighted median* instead of the midpoint — the
    render-phase load-balancing scheme the paper lists as future work:
    pass e.g. the visible-voxel indicator and every rank receives about
    the same amount of renderable material.  Splits remain axis-aligned
    planes, so all compositing front/back machinery is unaffected.
    """
    if not is_power_of_two(num_ranks):
        raise PartitionError(
            f"binary-swap partitioning requires a power-of-two rank count, got {num_ranks}"
        )
    if len(shape) != 3 or any(s < 1 for s in shape):
        raise PartitionError(f"invalid volume shape {shape}")
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != tuple(shape):
            raise PartitionError(
                f"weights shape {weights.shape} does not match volume shape {shape}"
            )
        if (weights < 0).any():
            raise PartitionError("weights must be non-negative")
    levels = log2_int(num_ranks)

    extents: list[Extent3 | None] = [None] * num_ranks
    axes_per_rank: list[list[int]] = [[0] * levels for _ in range(num_ranks)]

    def _pick_axis(extent: Extent3, level: int) -> int:
        if axis_policy == "cycle":
            return level % 3
        if axis_policy == "longest":
            sx, sy, sz = extent.shape
            sizes = (sx, sy, sz)
            return int(np.argmax(sizes))
        raise PartitionError(f"unknown axis_policy {axis_policy!r}")

    def _split(extent: Extent3, axis: int) -> tuple[Extent3, Extent3]:
        if weights is None:
            return extent.split(axis)
        return _weighted_split(extent, axis, weights)

    def _descend(extent: Extent3, level: int, rank_lo: int, rank_hi: int) -> None:
        if level == levels:
            extents[rank_lo] = extent
            return
        axis = _pick_axis(extent, level)
        if extent.shape[axis] < 2:
            raise PartitionError(
                f"volume {shape} too small to bisect {num_ranks} ways "
                f"(extent {extent.shape} cannot split along axis {axis})"
            )
        low, high = _split(extent, axis)
        mid = (rank_lo + rank_hi) // 2
        # The stage corresponding to split level `level` is levels-1-level:
        # the root split is undone at the *last* compositing stage.
        stage = levels - 1 - level
        for r in range(rank_lo, rank_hi):
            axes_per_rank[r][stage] = axis
        _descend(low, level + 1, rank_lo, mid)
        _descend(high, level + 1, mid, rank_hi)

    _descend(Extent3.full(tuple(shape)), 0, 0, num_ranks)
    assert all(e is not None for e in extents)
    return PartitionPlan(
        shape=tuple(shape),
        extents=tuple(extents),  # type: ignore[arg-type]
        stage_axes=tuple(tuple(a) for a in axes_per_rank),
    )


def _weighted_split(extent: Extent3, axis: int, weights: np.ndarray) -> tuple[Extent3, Extent3]:
    """Split ``extent`` along ``axis`` at the weighted median plane.

    The plane index is chosen so the low half holds as close to half of
    the extent's total weight as possible, clamped so both halves keep
    at least one slab.  Zero-weight extents fall back to the midpoint.
    """
    sx, sy, sz = extent.slices()
    block = weights[sx, sy, sz]
    other_axes = tuple(a for a in range(3) if a != axis)
    per_slab = block.sum(axis=other_axes)
    total = float(per_slab.sum())
    lo = (extent.x0, extent.y0, extent.z0)[axis]
    hi = (extent.x1, extent.y1, extent.z1)[axis]
    if total <= 0.0:
        return extent.split(axis)
    cumulative = np.cumsum(per_slab)
    # Candidate split after slab j puts cumulative[j] weight on the low
    # side; pick the j closest to half, keeping both halves non-empty.
    candidates = np.arange(1, hi - lo)  # split offsets, 1..len-1
    balance = np.abs(cumulative[candidates - 1] - total / 2.0)
    offset = int(candidates[int(np.argmin(balance))])
    mid = lo + offset
    coords_lo = [extent.x0, extent.y0, extent.z0]
    coords_hi = [extent.x1, extent.y1, extent.z1]
    a_hi = list(coords_hi)
    a_hi[axis] = mid
    b_lo = list(coords_lo)
    b_lo[axis] = mid
    low = Extent3(coords_lo[0], coords_lo[1], coords_lo[2], a_hi[0], a_hi[1], a_hi[2])
    high = Extent3(b_lo[0], b_lo[1], b_lo[2], coords_hi[0], coords_hi[1], coords_hi[2])
    return low, high


def render_load_weights(volume_data: np.ndarray, transfer) -> np.ndarray:
    """Visible-voxel indicator used as render-load weights.

    A voxel contributes render work roughly when the transfer function
    gives it non-zero opacity; a small epsilon keeps fully-empty regions
    splittable at sensible places.
    """
    visible = (transfer.opacity(np.asarray(volume_data)) > 0.0).astype(np.float64)
    return visible + 1e-3


def depth_order(plan: PartitionPlan, view_dir: np.ndarray) -> list[int]:
    """Ranks sorted front-to-back along ``view_dir`` (eye-to-scene).

    The order is derived from the bisection tree itself: at every split
    level, the subtree the separating plane puts in front comes first.
    This is exactly the order the binary-swap pairwise *over* decisions
    induce, so sequential compositing in this order is bit-consistent
    with every swap-structured method even for synthetic images whose
    footprints overlap everywhere.  (Sorting block centers by projection
    gives another valid visibility order for real geometry, but can
    disagree with the tree on such synthetic inputs.)
    """
    view_dir = np.asarray(view_dir, dtype=np.float64)
    stages = plan.num_stages

    def key(rank: int) -> tuple[int, ...]:
        # Root level first (stage = stages-1), down to the leaf split.
        return tuple(
            0 if plan.local_in_front(rank, stages - 1 - level, view_dir) else 1
            for level in range(stages)
        )

    return sorted(range(plan.num_ranks), key=key)
