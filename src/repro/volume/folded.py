"""Non-power-of-two partitioning via *folding* (paper §5, future work #1).

The binary-swap family requires ``P = 2^k`` processors.  The standard
remedy — and the paper's first stated future-work item — is folding: let
``Q`` be the largest power of two ``<= P``.  The volume is bisected into
``Q`` core blocks; the ``E = P - Q`` *extra* ranks each take half of one
core block (the core rank keeps the other half).  Before the swap, every
extra rank ships its rendered subimage to its core buddy, which folds it
in with one *over*; the ordinary ``Q``-rank binary swap then proceeds
unchanged.  Extra ranks own nothing afterwards.

Because each (core, extra) pair's subvolumes are the two halves of one
axis-aligned split, the fold's over order is determined by the same
plane rule the swap stages use, and all correctness invariants carry
over — see ``tests/test_folding.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import PartitionError
from ..types import Extent3
from .partition import PartitionPlan, depth_order, recursive_bisect

__all__ = [
    "FoldedPartition",
    "partition_folded",
    "folded_depth_order",
    "core_count",
    "refold_survivors",
]


def core_count(num_ranks: int) -> int:
    """Largest power of two not exceeding ``num_ranks``."""
    if num_ranks < 1:
        raise PartitionError(f"num_ranks must be >= 1, got {num_ranks}")
    return 1 << (num_ranks.bit_length() - 1)


@dataclass(frozen=True)
class FoldedPartition:
    """Partition of a volume over any ``P >= 1`` ranks.

    Ranks ``0..Q-1`` are *core* ranks running the binary swap; ranks
    ``Q..P-1`` are *extra* ranks that fold into their buddies first.
    ``extents[r]`` is what rank ``r`` renders.  For a power-of-two ``P``
    the structure degenerates: no extras, core extents = plan extents.
    """

    num_ranks: int
    core_plan: PartitionPlan
    extents: tuple[Extent3, ...]
    #: extra rank -> its core buddy.
    buddy_of_extra: dict[int, int]
    #: core rank -> its extra partner (absent if unfolded).
    extra_of_core: dict[int, int]
    #: core rank -> axis of the fold split (only for folded cores).
    fold_axis: dict[int, int]

    @property
    def core_ranks(self) -> int:
        return self.core_plan.num_ranks

    @property
    def num_extras(self) -> int:
        return self.num_ranks - self.core_ranks

    def is_extra(self, rank: int) -> bool:
        return rank >= self.core_ranks

    def extent(self, rank: int) -> Extent3:
        return self.extents[rank]

    def core_in_front(self, core_rank: int, view_dir: np.ndarray) -> bool:
        """Whether the core's (low) half occludes its extra's (high) half.

        By construction the core keeps the low-coordinate half of the
        fold split, so the rule matches
        :meth:`~repro.volume.partition.PartitionPlan.local_in_front`.
        """
        axis = self.fold_axis[core_rank]
        return float(view_dir[axis]) >= 0.0


def partition_folded(
    shape: tuple[int, int, int],
    num_ranks: int,
    *,
    axis_policy: str = "longest",
) -> FoldedPartition:
    """Partition ``shape`` over any ``num_ranks >= 1`` with folding.

    The ``E`` largest core blocks (ties broken by rank) are the ones
    split for the extras, which balances per-rank render load.
    """
    if num_ranks < 1:
        raise PartitionError(f"num_ranks must be >= 1, got {num_ranks}")
    core = core_count(num_ranks)
    plan = recursive_bisect(shape, core, axis_policy=axis_policy)
    extras = num_ranks - core

    extents: list[Extent3] = [plan.extent(rank) for rank in range(core)]
    buddy_of_extra: dict[int, int] = {}
    extra_of_core: dict[int, int] = {}
    fold_axis: dict[int, int] = {}

    # Split the largest core blocks for the extras (deterministic order).
    order = sorted(range(core), key=lambda r: (-plan.extent(r).num_voxels, r))
    for j in range(extras):
        core_rank = order[j]
        extra_rank = core + j
        extent = extents[core_rank]
        axis = int(np.argmax(extent.shape))
        if extent.shape[axis] < 2:
            raise PartitionError(
                f"volume {shape} too small to fold {num_ranks} ranks "
                f"(core block {core_rank} cannot split)"
            )
        low, high = extent.split(axis)
        extents[core_rank] = low
        extents.append(high)
        buddy_of_extra[extra_rank] = core_rank
        extra_of_core[core_rank] = extra_rank
        fold_axis[core_rank] = axis

    # Extras were appended in extra-rank order; make the list index-true.
    assert len(extents) == num_ranks
    return FoldedPartition(
        num_ranks=num_ranks,
        core_plan=plan,
        extents=tuple(extents),
        buddy_of_extra=buddy_of_extra,
        extra_of_core=extra_of_core,
        fold_axis=fold_axis,
    )


def refold_survivors(
    plan: PartitionPlan, failed, *, pairs=None
) -> tuple[FoldedPartition, list[int]]:
    """Refold a power-of-two bisection plan onto the survivors of ``failed``.

    Graceful degradation (see ``DESIGN.md`` §5.4): a ``P = 2^n`` recursive
    bisection *is* a fully-folded ``Q = P/2``-core partition — stage-0
    swap partners ``(2i, 2i+1)`` are the two halves of one axis-aligned
    split, exactly a (core, extra) fold pair.  When ranks die before
    compositing, this builds the ``Q``-core plan whose block ``i`` merges
    leaves ``2i`` and ``2i+1``:

    * both members of pair ``i`` alive — the even leaf becomes core ``i``
      (rendering its original extent), the odd leaf becomes an extra that
      folds in across the pair's split plane;
    * one member dead — the survivor becomes core ``i`` and renders the
      *merged* block, covering for its buddy;
    * both members dead — the block is unrecoverable and a
      :class:`~repro.errors.PartitionError` is raised.

    Returns ``(folded, rank_map)`` where ``rank_map[new_rank]`` is the
    original rank that plays ``new_rank`` in the degraded run (cores
    first, then extras in pair order).
    """
    num_ranks = plan.num_ranks
    if num_ranks < 2 or num_ranks & (num_ranks - 1):
        raise PartitionError(
            f"refolding requires a power-of-two plan with P >= 2, got P={num_ranks}"
        )
    failed = set(failed)
    unknown = failed - set(range(num_ranks))
    if unknown:
        raise PartitionError(f"failed ranks {sorted(unknown)} not in plan of P={num_ranks}")
    if not failed:
        raise PartitionError("refold_survivors called with no failed ranks")
    core = num_ranks // 2
    # Schedules advertise their stage-0 fold pairing via ``refold_pairs``;
    # degradation only knows how to merge the bisection's (2i, 2i+1)
    # buddies, so anything else must fail loudly rather than silently
    # rerun with a mismatched depth order.
    if pairs is not None:
        expected = [(2 * i, 2 * i + 1) for i in range(core)]
        if [tuple(p) for p in pairs] != expected:
            raise PartitionError(
                f"schedule's fold pairing {list(pairs)} does not match the "
                f"bisection buddies {expected}; graceful degradation is only "
                "defined for binary-swap-style stage-0 pairs"
            )

    core_extents: list[Extent3] = []
    core_axes: list[tuple[int, ...]] = []
    render_extents: list[Extent3] = []
    rank_map: list[int] = []
    extra_specs: list[tuple[int, int, int]] = []  # (core_rank, original_rank, axis)

    for i in range(core):
        even, odd = 2 * i, 2 * i + 1
        even_dead, odd_dead = even in failed, odd in failed
        if even_dead and odd_dead:
            raise PartitionError(
                f"ranks {even} and {odd} both failed: block {i} has no survivor "
                "to re-render it"
            )
        lo_ext, hi_ext = plan.extent(even), plan.extent(odd)
        merged = Extent3(
            min(lo_ext.x0, hi_ext.x0),
            min(lo_ext.y0, hi_ext.y0),
            min(lo_ext.z0, hi_ext.z0),
            max(lo_ext.x1, hi_ext.x1),
            max(lo_ext.y1, hi_ext.y1),
            max(lo_ext.z1, hi_ext.z1),
        )
        core_extents.append(merged)
        # Core stage-k partners differ in original bit k+1: drop stage 0.
        core_axes.append(tuple(plan.stage_axes[even][1:]))
        if even_dead or odd_dead:
            survivor = odd if even_dead else even
            rank_map.append(survivor)
            render_extents.append(merged)
        else:
            rank_map.append(even)
            render_extents.append(lo_ext)
            extra_specs.append((i, odd, plan.stage_axes[even][0]))

    buddy_of_extra: dict[int, int] = {}
    extra_of_core: dict[int, int] = {}
    fold_axis: dict[int, int] = {}
    for j, (core_rank, original, axis) in enumerate(extra_specs):
        extra_rank = core + j
        buddy_of_extra[extra_rank] = core_rank
        extra_of_core[core_rank] = extra_rank
        fold_axis[core_rank] = axis
        rank_map.append(original)
        render_extents.append(plan.extent(original))

    folded = FoldedPartition(
        num_ranks=core + len(extra_specs),
        core_plan=PartitionPlan(
            shape=plan.shape,
            extents=tuple(core_extents),
            stage_axes=tuple(core_axes),
        ),
        extents=tuple(render_extents),
        buddy_of_extra=buddy_of_extra,
        extra_of_core=extra_of_core,
        fold_axis=fold_axis,
    )
    return folded, rank_map


def folded_depth_order(folded: FoldedPartition, view_dir: np.ndarray) -> list[int]:
    """Front-to-back rank order over all ``P`` subvolumes.

    The core tree order, with each folded core expanded into its
    (core, extra) pair ordered by the fold plane.
    """
    view_dir = np.asarray(view_dir, dtype=np.float64)
    order: list[int] = []
    for core_rank in depth_order(folded.core_plan, view_dir):
        extra = folded.extra_of_core.get(core_rank)
        if extra is None:
            order.append(core_rank)
        elif folded.core_in_front(core_rank, view_dir):
            order.extend((core_rank, extra))
        else:
            order.extend((extra, core_rank))
    return order
