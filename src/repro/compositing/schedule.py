"""Exchange schedules — the *who swaps what* plane of compositing.

The paper's four methods are points in a 2-D design space: an exchange
*schedule* (which ranks exchange which image parts at each stage, and
how ownership narrows) crossed with a pixel *codec* (how a part's pixels
are serialized — see :mod:`repro.compositing.codec`).  A
:class:`Schedule` captures the first axis: :meth:`Schedule.build`
produces one rank's :class:`RankProgram` — a sequence of
:class:`ScheduleStage`\\ s, each holding the kept part, the
:class:`ExchangeStep`\\ s (peer + part to send) and the depth order in
which received contributions fold into the kept part.
:meth:`Schedule.program` is what the engine calls: the same program,
memoized per frame shape, since a program is a pure function of a few
content fields.

Implementations:

* :class:`BinarySwapSchedule` — the classic pairwise halving exchange
  shared by BS/BSBR/BSBRC (partner ``rank ^ 2^k``, centerline split);
* :class:`SectionedSchedule` — BSLC's statically load-balanced
  *interleaved section* distribution (§3.3, Figure 6): parts are
  section patterns over the flattened frame, not contiguous rects;
* :class:`RadixKSchedule` — the radix-k generalization (Peterka et al.):
  processors are factored into rounds of group size ``k_j``; within a
  group each member keeps ``1/k`` of the region and runs ``k-1``
  pairwise exchanges.  ``k = [2, 2, ...]`` degenerates to binary swap
  *exactly* (same partners, same splits, same byte counts);
* :class:`DirectSendSchedule` — the single-stage ``k = P`` extreme:
  every rank sends every other rank its slice of that rank's region.

All rect schedules carve regions with the same recursive centerline
splits binary swap uses, so final ownership maps are identical across
radix choices and the gathered image is independent of the schedule.
"""

from __future__ import annotations

import abc
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from ..cluster.hypercube import keeps_low_half, log2_int
from ..errors import CompositingError, ConfigurationError
from ..types import Rect
from ..volume.partition import PartitionPlan
from .base import SPLIT_POLICIES, split_axis_for

__all__ = [
    "DEFAULT_SECTION",
    "RectPart",
    "IndexPart",
    "ExchangeStep",
    "ScheduleStage",
    "RankProgram",
    "Schedule",
    "BinarySwapSchedule",
    "SectionedSchedule",
    "DirectSendSchedule",
    "RadixKSchedule",
    "parse_radix",
]

#: Default BSLC section length in pixels: long enough to keep RLE
#: coherence, short enough to interleave finely and balance the pair.
DEFAULT_SECTION = 128

#: Exchange steps the program memo may hold across its tables; the least
#: recently used table goes first.  A step with its share of the stage,
#: parts and fold order costs 370-750 bytes, so the memo stays under
#: about 12 MB: eight P=256 binary-swap tables (2,048 steps each) fit,
#: while a direct-send table at P=256 (65,280 steps) is never kept.
_STEP_BUDGET = 16384
#: key -> (the full table's weight in steps, one program slot per rank).
_TABLES: "OrderedDict[tuple, tuple[int, list[RankProgram | None]]]" = OrderedDict()


# --------------------------------------------------------------------------
# image parts
# --------------------------------------------------------------------------
@dataclass(frozen=True, eq=False)
class RectPart:
    """A contiguous image region (rect-structured schedules)."""

    rect: Rect
    kind: ClassVar[str] = "rect"

    @property
    def num_pixels(self) -> int:
        return self.rect.area

    def pixels(self, plane: np.ndarray) -> np.ndarray:
        """The part's values of a full-frame ``plane`` (a 2-D view whose
        C order is row-major over the rect)."""
        rows, cols = self.rect.slices()
        return plane[rows, cols]

    def put(self, plane: np.ndarray, values: np.ndarray) -> None:
        """Write the part's ``values`` (row-major) into ``plane``: the
        inverse of :meth:`pixels`."""
        rows, cols = self.rect.slices()
        plane[rows, cols] = np.reshape(values, (self.rect.height, self.rect.width))


@dataclass(frozen=True, eq=False)
class IndexPart:
    """Every ``stride``-th section of the flattened frame (sectioned schedules).

    The frame's ``frame_pixels`` flat pixels fall into consecutive
    sections of ``section`` pixels, of which only the last may be short.
    The part is the sections ``j ≡ offset (mod stride)`` in frame order:
    a pattern, so it is four integers, and it addresses the frame itself.
    """

    frame_pixels: int
    section: int
    stride: int = 1
    offset: int = 0
    kind: ClassVar[str] = "index"
    #: No rectangular geometry (the counterpart of :attr:`RectPart.rect`).
    rect: ClassVar[None] = None

    def split(self, keep_first: bool) -> tuple["IndexPart", "IndexPart"]:
        """``(kept, sent)``: section ``j`` of this part goes to half ``j % 2``.

        Both partners of a pair own the same part at stage entry, so
        their splits are complementary without communication (§3.3,
        Figure 6).
        """
        first = replace(self, stride=2 * self.stride)
        second = replace(first, offset=self.offset + self.stride)
        return (first, second) if keep_first else (second, first)

    def _layout(self) -> tuple[int, int]:
        """``(full sections owned, tail pixels owned)``."""
        full, tail = divmod(self.frame_pixels, self.section)
        owned = max(0, -(-(full - self.offset) // self.stride))
        owns_tail = full >= self.offset and (full - self.offset) % self.stride == 0
        return owned, tail if owns_tail else 0

    @property
    def num_pixels(self) -> int:
        owned, tail = self._layout()
        return owned * self.section + tail

    def flat(self, positions: np.ndarray | None = None) -> np.ndarray:
        """Frame indices of sequence ``positions`` (all of them by default)."""
        if positions is None:
            positions = np.arange(self.num_pixels, dtype=np.int64)
        sections = self.offset + (positions // self.section) * self.stride
        return sections * self.section + positions % self.section

    def pixels(self, plane: np.ndarray) -> np.ndarray:
        """The part's values of a full-frame ``plane``, in sequence order.

        The full sections are a strided ``(sections, section)`` view; a
        part owning the frame's short last section gets it appended.
        """
        flat = plane.reshape(-1)
        full = self.frame_pixels // self.section * self.section
        sections = flat[:full].reshape(-1, self.section)[self.offset :: self.stride]
        if not self._layout()[1]:
            return sections
        return np.concatenate((sections.reshape(-1), flat[full:]))

    def put(self, plane: np.ndarray, values: np.ndarray) -> None:
        """Write the part's ``values`` (sequence order) into ``plane``:
        the inverse of :meth:`pixels`."""
        flat = plane.reshape(-1)
        values = np.reshape(values, -1)
        full = self.frame_pixels // self.section * self.section
        sections = flat[:full].reshape(-1, self.section)[self.offset :: self.stride]
        sections[...] = values[: sections.size].reshape(sections.shape)
        if self._layout()[1]:
            flat[full:] = values[sections.size :]


# --------------------------------------------------------------------------
# per-stage structure
# --------------------------------------------------------------------------
@dataclass(frozen=True, eq=False)
class ExchangeStep:
    """One pairwise full-duplex exchange: ship ``send_part`` to ``peer``."""

    peer: int
    send_part: RectPart | IndexPart


@dataclass(frozen=True, eq=False)
class ScheduleStage:
    """One stage of a rank's program.

    ``steps`` run in listed order (every position in the list must be a
    perfect matching across the group, as an XOR round schedule
    guarantees).  ``composite_order`` lists ``(step_slot,
    local_in_front)`` pairs in the order received contributions must fold
    into the kept part: contributions behind the accumulated local image
    first (near to far, ``local_in_front=True``), then contributions in
    front (far to near, ``local_in_front=False``) — the sequential
    application then equals the depth-ordered *over* chain.
    """

    index: int
    keep_part: RectPart | IndexPart
    steps: tuple[ExchangeStep, ...]
    composite_order: tuple[tuple[int, bool], ...]


@dataclass(frozen=True, eq=False)
class RankProgram:
    """Everything one rank does: the stages plus its final owned part."""

    stages: tuple[ScheduleStage, ...]
    final_part: RectPart | IndexPart


# --------------------------------------------------------------------------
# schedule base
# --------------------------------------------------------------------------
class Schedule(abc.ABC):
    """Produces per-rank exchange programs; stateless and reusable."""

    #: Registry name, e.g. ``"binary-swap"``.
    name: str = "abstract"
    #: Part representation this schedule exchanges: ``"rect"`` | ``"index"``.
    part_kind: str = "rect"
    #: One-line description for the method catalog.
    description: str = ""

    @abc.abstractmethod
    def build(
        self,
        rank: int,
        size: int,
        frame: Rect,
        num_pixels: int,
        plan: PartitionPlan,
        view_dir: np.ndarray,
    ) -> RankProgram:
        """Build rank ``rank``'s program for a ``size``-rank exchange."""

    def program(
        self,
        rank: int,
        size: int,
        frame: Rect,
        num_pixels: int,
        plan: PartitionPlan,
        view_dir: np.ndarray,
    ) -> RankProgram:
        """:meth:`build`'s program, memoized per frame shape.

        A program reads the schedule's own parameters, ``size``,
        ``frame``, ``num_pixels``, ``plan.stage_axes`` and — through
        :meth:`PartitionPlan.local_in_front` — only the sign pattern
        ``view_dir[a] >= 0``, so that content is the memo key (never an
        ``id()``).  Each key holds one slot per rank, filled by the
        rank's first build.  Programs are frozen, so runs and threads
        share them.  The memo takes no lock: a forked render worker must
        not inherit one held (DESIGN §5.1).  The key holds builtins only,
        so each dict operation runs no Python code and is atomic under
        the interpreter lock; a lost race only builds a program twice.
        """
        key = (
            type(self),
            tuple(sorted(vars(self).items())),
            size,
            (frame.y0, frame.x0, frame.y1, frame.x1),
            num_pixels,
            plan.stage_axes,
            tuple((np.asarray(view_dir) >= 0.0).tolist()),
        )
        entry = _TABLES.get(key)
        if entry is not None:
            try:
                _TABLES.move_to_end(key)
            except KeyError:
                pass  # evicted by another thread meanwhile; still valid
            slots = entry[1]
            program = slots[rank]
            if program is None:
                program = slots[rank] = self.build(
                    rank, size, frame, num_pixels, plan, view_dir
                )
            return program
        program = self.build(rank, size, frame, num_pixels, plan, view_dir)
        # Every rank of a built-in schedule runs the same number of steps;
        # a table weighs at least one per slot, so P=1 tables count too.
        steps = size * max(1, sum(len(stage.steps) for stage in program.stages))
        if steps <= _STEP_BUDGET:
            slots = [None] * size
            slots[rank] = program
            _TABLES[key] = (steps, slots)
            while sum(held for held, _ in list(_TABLES.values())) > _STEP_BUDGET:
                try:
                    _TABLES.popitem(last=False)
                except KeyError:
                    break  # emptied by another thread meanwhile
        return program

    def refold_pairs(self, size: int) -> list[tuple[int, int]]:
        """First-exchange buddy pairs, keyed off this schedule.

        Graceful degradation re-folds a lost rank's block onto its
        first-exchange partner (see
        :func:`repro.volume.folded.refold_survivors`); the pairing comes
        from the schedule so a future schedule whose first round does
        not pair bisection buddies fails loudly instead of silently
        mis-folding.  Every built-in schedule opens with the stage-0
        binary-swap pairing ``(2i, 2i+1)``.
        """
        return [(2 * i, 2 * i + 1) for i in range(size // 2)]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(name={self.name!r})"


def parse_radix(text: str) -> tuple[int, ...]:
    """Parse a CLI-style radix list, e.g. ``"4,4"`` → ``(4, 4)``."""
    try:
        factors = tuple(int(tok) for tok in text.replace(" ", "").split(",") if tok)
    except ValueError:
        raise ConfigurationError(
            f"bad radix list {text!r}: expected comma-separated integers"
        ) from None
    if not factors:
        raise ConfigurationError(f"bad radix list {text!r}: no factors")
    return factors


# --------------------------------------------------------------------------
# radix-k (and its binary-swap / direct-send degenerations)
# --------------------------------------------------------------------------
class RadixKSchedule(Schedule):
    """Grouped k-ary exchange over recursively bisected regions.

    Stage ``j`` covers ``g_j = log2(k_j)`` partner bits of the rank id:
    the ``k_j`` ranks differing only in those bits form a group, the
    current region splits ``g_j`` times by centerline (one split per
    bit, same axis policy as binary swap) into one subregion per member,
    and ``k_j - 1`` pairwise XOR rounds (round ``t`` pairs member ``m``
    with ``m ^ t`` — a perfect matching, deadlock-free with full-duplex
    ``sendrecv``) deliver to each member every peer's version of *its*
    subregion.  With ``radix=[2]*log2(P)`` every group is a binary-swap
    pair and the schedule reproduces BS bit for bit.

    ``radix`` factors must be powers of two ≥ 2.  The list adapts to the
    actual group size (degraded reruns fold onto fewer ranks): factors
    are consumed left to right, each clamped to the unfactored
    remainder, and the list's last factor (default 2) repeats if it runs
    out — e.g. ``(4, 4)`` resolves to ``4×4`` at P=16, ``4×2`` at P=8,
    ``4`` at P=4 and ``2`` at P=2.
    """

    name = "radix-k"
    part_kind = "rect"
    description = "grouped k-ary rounds generalizing binary swap (radix-k)"

    def __init__(
        self,
        *,
        radix: tuple[int, ...] | list[int] | None = None,
        split_policy: str = "longest",
    ):
        if radix is not None:
            radix = tuple(int(k) for k in radix)
            if not radix:
                raise ConfigurationError("radix list must not be empty")
            for k in radix:
                if k < 2 or k & (k - 1):
                    raise ConfigurationError(
                        f"radix factors must be powers of two >= 2, got {k}"
                    )
        if split_policy not in SPLIT_POLICIES:
            raise ConfigurationError(
                f"unknown split policy {split_policy!r}; choose from {SPLIT_POLICIES}"
            )
        self.radix = radix
        self.split_policy = split_policy

    def effective_radix(self, size: int) -> tuple[int, ...]:
        """Resolve the requested factors against an actual group size."""
        log2_int(size)  # validates power of two
        factors: list[int] = []
        remaining = size
        i = 0
        while remaining > 1:
            if self.radix is None:
                want = 2
            elif i < len(self.radix):
                want = self.radix[i]
            else:
                want = self.radix[-1]
            k = min(want, remaining)
            factors.append(k)
            remaining //= k
            i += 1
        return tuple(factors)

    def build(
        self,
        rank: int,
        size: int,
        frame: Rect,
        num_pixels: int,
        plan: PartitionPlan,
        view_dir: np.ndarray,
    ) -> RankProgram:
        factors = self.effective_radix(size)
        region = frame
        stages: list[ScheduleStage] = []
        bit = 0
        for stage_idx, k in enumerate(factors):
            group_bits = log2_int(k)
            me = (rank >> bit) & (k - 1)
            subregions = [
                self._member_region(region, bit, member, group_bits)
                for member in range(k)
            ]
            steps = tuple(
                ExchangeStep(
                    peer=self._member_rank(rank, bit, me ^ t, k),
                    send_part=RectPart(subregions[me ^ t]),
                )
                for t in range(1, k)
            )
            order = self._composite_order(
                rank, bit, group_bits, me, k, plan, view_dir
            )
            stages.append(
                ScheduleStage(
                    index=stage_idx,
                    keep_part=RectPart(subregions[me]),
                    steps=steps,
                    composite_order=order,
                )
            )
            region = subregions[me]
            bit += group_bits
        return RankProgram(stages=tuple(stages), final_part=RectPart(region))

    def _member_region(
        self, region: Rect, bit: int, member: int, group_bits: int
    ) -> Rect:
        """Member ``member``'s subregion: one centerline split per bit."""
        cur = region
        for i in range(group_bits):
            axis = split_axis_for(cur, bit + i, self.split_policy)
            first, second = cur.split(axis)
            if first.is_empty or second.is_empty:
                raise CompositingError(
                    f"image too small to halve at stage {bit + i} (region {cur})"
                )
            cur = second if (member >> i) & 1 else first
        return cur

    @staticmethod
    def _member_rank(rank: int, bit: int, member: int, k: int) -> int:
        """Rank id of group member ``member`` (replace the group bits)."""
        return (rank & ~((k - 1) << bit)) | (member << bit)

    def _composite_order(
        self,
        rank: int,
        bit: int,
        group_bits: int,
        me: int,
        k: int,
        plan: PartitionPlan,
        view_dir: np.ndarray,
    ) -> tuple[tuple[int, bool], ...]:
        """Depth-sort the group; emit fold order around the local image.

        Members of one group share all bits outside ``[bit, bit+g)``, so
        their relative depth is decided by the bisection planes of those
        stages alone (most significant bit = coarsest plane first) — the
        same rule :func:`repro.volume.partition.depth_order` applies
        globally.
        """

        def front_key(member: int) -> tuple[int, ...]:
            member_rank = self._member_rank(rank, bit, member, k)
            return tuple(
                0 if plan.local_in_front(member_rank, s, view_dir) else 1
                for s in range(bit + group_bits - 1, bit - 1, -1)
            )

        ordered = sorted(range(k), key=front_key)  # front to back
        mine = ordered.index(me)
        slot_of = {me ^ t: t - 1 for t in range(1, k)}
        behind = ordered[mine + 1 :]  # near to far
        in_front = ordered[:mine]  # front to back
        order = [(slot_of[m], True) for m in behind]
        order += [(slot_of[m], False) for m in reversed(in_front)]
        return tuple(order)


class BinarySwapSchedule(RadixKSchedule):
    """Classic binary swap: radix ``[2] * log2(P)``."""

    name = "binary-swap"
    description = "pairwise halving exchange (binary swap)"

    def __init__(self, *, split_policy: str = "longest"):
        super().__init__(radix=None, split_policy=split_policy)


class DirectSendSchedule(RadixKSchedule):
    """Single-stage direct send: one group of size P, ``P - 1`` rounds.

    Regions still come from the recursive centerline splits, so the
    final ownership map matches the swap-structured schedules (unlike
    the row-strip ``direct`` baseline, which is kept as-is).
    """

    name = "direct-send"
    description = "single-stage all-pairs exchange of bisected regions"

    def __init__(self, *, split_policy: str = "longest"):
        super().__init__(radix=None, split_policy=split_policy)

    def effective_radix(self, size: int) -> tuple[int, ...]:
        log2_int(size)
        return (size,) if size > 1 else ()


# --------------------------------------------------------------------------
# sectioned (BSLC's interleaved distribution)
# --------------------------------------------------------------------------
class SectionedSchedule(Schedule):
    """BSLC's load-balanced distribution: interleaved index sections.

    Parts are :class:`IndexPart` patterns over the flattened frame.  At
    stage ``k`` the pair ``rank ^ 2^k`` splits the owned sequence into
    interleaved sections of ``section`` pixels (Figure 6); both partners
    derive the identical parts, so sent subsets travel positionally and
    the receiver addresses its kept part directly.
    """

    name = "sectioned"
    part_kind = "index"
    description = "interleaved-section distribution (BSLC load balancing)"

    def __init__(self, *, section: int = DEFAULT_SECTION):
        if section < 1:
            raise ConfigurationError(f"section must be >= 1, got {section}")
        self.section = int(section)

    def build(
        self,
        rank: int,
        size: int,
        frame: Rect,
        num_pixels: int,
        plan: PartitionPlan,
        view_dir: np.ndarray,
    ) -> RankProgram:
        part = IndexPart(num_pixels, self.section)
        stages: list[ScheduleStage] = []
        for stage in range(log2_int(size)):
            kept, sent = part.split(keeps_low_half(rank, stage))
            stages.append(
                ScheduleStage(
                    index=stage,
                    keep_part=kept,
                    steps=(ExchangeStep(peer=rank ^ (1 << stage), send_part=sent),),
                    composite_order=((0, plan.local_in_front(rank, stage, view_dir)),),
                )
            )
            part = kept
        return RankProgram(stages=tuple(stages), final_part=part)
