"""The memoized program table equals per-rank schedule builds.

``Schedule.program`` memoizes each rank's ``Schedule.build`` in a table
keyed on the program's content (schedule parameters, size, frame, pixel
count, the plan's stage axes and the view direction's sign pattern).
Every row must equal a fresh ``build`` for the inputs it is asked with,
field by field, the memo must stay within its step budget, and a
repeated run must build nothing.
"""

from __future__ import annotations

import dataclasses
import itertools
import sys
import threading
from unittest import mock

import numpy as np
import pytest

from repro import SP2, run_compositing
from repro.compositing import schedule as schedule_mod
from repro.compositing.schedule import (
    BinarySwapSchedule,
    DirectSendSchedule,
    RadixKSchedule,
    SectionedSchedule,
)
from repro.errors import CompositingError
from repro.experiments.scale import VIEW_DIR, synthetic_subimages
from repro.types import Rect
from repro.volume.folded import partition_folded
from repro.volume.partition import recursive_bisect

#: Not square, so the three split policies carve different regions.
FRAME = Rect(0, 0, 96, 80)
SHAPE = (64, 48, 32)
RANKS = [1 << e for e in range(9)]  # 1 .. 256

SCHEDULES = {
    "binary-swap": lambda: BinarySwapSchedule(),
    "radix-k(4,4)": lambda: RadixKSchedule(radix=(4, 4)),
    "radix-k(8)": lambda: RadixKSchedule(radix=(8,)),
    "radix-k": lambda: RadixKSchedule(),
    "direct-send": lambda: DirectSendSchedule(),
    "sectioned": lambda: SectionedSchedule(),
}
RECT_SCHEDULES = {
    "binary-swap": BinarySwapSchedule,
    "radix-k(4,4)": lambda **kw: RadixKSchedule(radix=(4, 4), **kw),
    "direct-send": DirectSendSchedule,
}

OCTANTS = [
    np.array([sx * 0.3, sy * 0.5, sz * 0.8])
    for sx, sy, sz in itertools.product((1.0, -1.0), repeat=3)
]
#: Perpendicular components: ``local_in_front`` breaks the tie with
#: ``view_dir[a] >= 0.0``, so ``-0.0`` counts as non-negative.
ZERO_COMPONENTS = [
    np.array([0.0, 0.0, 1.0]),
    np.array([-0.0, -0.6, 0.0]),
    np.array([0.0, -0.0, -1.0]),
]


def fields(obj):
    """A program as nested tuples: type name, then every field."""
    if dataclasses.is_dataclass(obj):
        return (type(obj).__name__,) + tuple(
            fields(getattr(obj, f.name)) for f in dataclasses.fields(obj)
        )
    if isinstance(obj, (tuple, list)):
        return tuple(fields(item) for item in obj)
    return obj


def same_signs(view_dir):
    """Another direction with ``view_dir``'s sign pattern under ``>= 0.0``."""
    return np.where(view_dir >= 0.0, 1.0, -1.0) * (np.abs(view_dir) + 0.25)


def held_steps():
    return sum(steps for steps, _ in schedule_mod._TABLES.values())


def assert_rows_equal_builds(make, size, plan, view_dir, frame=FRAME):
    """Rows memoized under one view direction, looked up by another
    instance under another direction with the same signs, equal fresh
    builds for the second direction."""
    filler = make()
    for rank in range(size):
        filler.program(rank, size, frame, frame.area, plan, same_signs(view_dir))
    schedule = make()
    for rank in range(size):
        row = schedule.program(rank, size, frame, frame.area, plan, view_dir)
        fresh = schedule.build(rank, size, frame, frame.area, plan, view_dir)
        assert fields(row) == fields(fresh), f"rank {rank}"


@pytest.fixture(autouse=True)
def empty_memo():
    schedule_mod._TABLES.clear()
    yield
    schedule_mod._TABLES.clear()


@pytest.mark.parametrize("size", RANKS)
@pytest.mark.parametrize("name", sorted(SCHEDULES))
def test_rows_equal_per_rank_builds(name, size):
    plan = recursive_bisect(SHAPE, size)
    assert_rows_equal_builds(SCHEDULES[name], size, plan, OCTANTS[5])


@pytest.mark.parametrize("policy", ["longest", "alternate", "rows"])
@pytest.mark.parametrize("name", sorted(RECT_SCHEDULES))
def test_split_policies(name, policy):
    plan = recursive_bisect(SHAPE, 64)
    assert_rows_equal_builds(
        lambda: RECT_SCHEDULES[name](split_policy=policy), 64, plan, OCTANTS[2]
    )


@pytest.mark.parametrize(
    "view_dir",
    OCTANTS + ZERO_COMPONENTS,
    ids=[f"octant{i}" for i in range(8)] + ["zero-xy", "zero-xz", "zero-xy-back"],
)
@pytest.mark.parametrize("name", ["binary-swap", "radix-k(4,4)", "direct-send", "sectioned"])
def test_view_directions(name, view_dir):
    plan = recursive_bisect(SHAPE, 16)
    assert_rows_equal_builds(SCHEDULES[name], 16, plan, view_dir)


@pytest.mark.parametrize("name", ["binary-swap", "radix-k(4,4)", "sectioned"])
def test_folded_core_plan(name):
    folded = partition_folded(SHAPE, 12)
    core = folded.core_plan
    assert core.num_ranks == 8
    assert_rows_equal_builds(SCHEDULES[name], 8, core, OCTANTS[3])


def test_program_is_the_memoized_row():
    plan = recursive_bisect(SHAPE, 16)
    schedule = BinarySwapSchedule()
    rows = [schedule.program(r, 16, FRAME, FRAME.area, plan, OCTANTS[0]) for r in range(16)]
    again = [schedule.program(r, 16, FRAME, FRAME.area, plan, OCTANTS[0]) for r in range(16)]
    assert len(schedule_mod._TABLES) == 1
    steps, slots = next(iter(schedule_mod._TABLES.values()))
    assert steps == 16 * 4
    assert all(row is slots[r] is again[r] for r, row in enumerate(rows))


def test_key_is_content_not_identity():
    """Equal-but-distinct plans, schedules, frames and same-sign view
    directions share one table; a flipped sign does not."""
    a = BinarySwapSchedule().program(3, 16, FRAME, FRAME.area, recursive_bisect(SHAPE, 16), OCTANTS[0])
    b = BinarySwapSchedule().program(
        3, 16, Rect(0, 0, 96, 80), FRAME.area, recursive_bisect(SHAPE, 16), OCTANTS[0] * 7.0
    )
    assert a is b and len(schedule_mod._TABLES) == 1
    c = BinarySwapSchedule().program(3, 16, FRAME, FRAME.area, recursive_bisect(SHAPE, 16), -OCTANTS[0])
    assert c is not a and len(schedule_mod._TABLES) == 2
    # Same programs, other class or parameters: separate entries.
    RadixKSchedule().program(3, 16, FRAME, FRAME.area, recursive_bisect(SHAPE, 16), OCTANTS[0])
    BinarySwapSchedule(split_policy="rows").program(
        3, 16, FRAME, FRAME.area, recursive_bisect(SHAPE, 16), OCTANTS[0]
    )
    assert len(schedule_mod._TABLES) == 4


def test_memo_is_a_bounded_lru():
    """P=256 binary-swap tables weigh 2,048 steps each: the budget holds
    a whole number of them and evicts the least recently used."""
    plan = recursive_bisect(SHAPE, 256)
    schedule = BinarySwapSchedule()
    capacity = schedule_mod._STEP_BUDGET // (256 * 8)
    frames = [Rect(0, 0, 64, 64 + i) for i in range(capacity + 1)]
    for frame in frames[:capacity]:
        schedule.program(0, 256, frame, frame.area, plan, OCTANTS[0])
    assert held_steps() == capacity * 256 * 8
    # Touch the oldest, so the second oldest is the one evicted.
    schedule.program(0, 256, frames[0], frames[0].area, plan, OCTANTS[0])
    schedule.program(0, 256, frames[-1], frames[-1].area, plan, OCTANTS[0])
    assert len(schedule_mod._TABLES) == capacity
    assert held_steps() <= schedule_mod._STEP_BUDGET
    kept = {key[3] for key in schedule_mod._TABLES}
    corners = [(f.y0, f.x0, f.y1, f.x1) for f in frames]
    assert corners[0] in kept and corners[1] not in kept and corners[-1] in kept


def test_memo_weighs_tables_by_their_steps():
    """A direct-send table holds P-1 steps per rank: at P=64 (4,032
    steps) it is kept, at P=256 (65,280 steps, over the whole budget) it
    is never stored and each rank builds its own program."""
    frame = Rect(0, 0, 64, 64)
    schedule = DirectSendSchedule()
    small = recursive_bisect(SHAPE, 64)
    schedule.program(0, 64, frame, frame.area, small, OCTANTS[0])
    assert held_steps() == 64 * 63
    schedule_mod._TABLES.clear()
    big = recursive_bisect(SHAPE, 256)
    for rank in (0, 255):
        row = schedule.program(rank, 256, frame, frame.area, big, OCTANTS[0])
        fresh = schedule.build(rank, 256, frame, frame.area, big, OCTANTS[0])
        assert fields(row) == fields(fresh)
    assert not schedule_mod._TABLES


def test_threads_share_the_memo_without_a_lock():
    """More threads than cores race lookups over more frame shapes than
    the memo holds: every row is still the rank's own program, and the
    memo never exceeds its budget by more than the tables in flight."""
    plan = recursive_bisect(SHAPE, 256)
    schedule = BinarySwapSchedule()
    capacity = schedule_mod._STEP_BUDGET // (256 * 8)
    frames = [Rect(0, 0, 64, 64 + i) for i in range(capacity + 4)]
    ranks = range(0, 256, 37)
    want = {
        (frame, rank): fields(schedule.build(rank, 256, frame, frame.area, plan, OCTANTS[1]))
        for frame in frames
        for rank in ranks
    }
    errors: list[BaseException] = []

    def worker(seed: int) -> None:
        try:
            for i in range(300):
                frame = frames[(seed * 7 + i) % len(frames)]
                rank = ranks[(seed + i) % len(ranks)]
                row = schedule.program(rank, 256, frame, frame.area, plan, OCTANTS[1])
                assert fields(row) == want[(frame, rank)]
                assert len(schedule_mod._TABLES) <= capacity + 8
        except BaseException as err:  # noqa: BLE001 - reported below
            errors.append(err)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors[0]
    assert held_steps() <= schedule_mod._STEP_BUDGET


def test_frame_too_small_fails_per_rank():
    """A frame that cannot be halved fails exactly as the rank's own
    build does, and nothing is memoized."""
    plan = recursive_bisect(SHAPE, 8)
    tiny = Rect(0, 0, 2, 2)
    schedule = BinarySwapSchedule()
    with pytest.raises(CompositingError) as built:
        schedule.build(0, 8, tiny, tiny.area, plan, OCTANTS[0])
    with pytest.raises(CompositingError) as looked_up:
        schedule.program(0, 8, tiny, tiny.area, plan, OCTANTS[0])
    assert str(looked_up.value) == str(built.value)
    assert not schedule_mod._TABLES


def test_second_run_builds_no_program():
    """Work-count guard: a repeated P=256 ``bsbrc`` run looks every
    rank's program up and builds none."""
    images = synthetic_subimages(256, 32, 0.2, seed=3)
    plan = recursive_bisect((64, 64, 64), 256)
    run_compositing(images, "bsbrc", plan, VIEW_DIR, SP2)
    builds = 0
    build = RadixKSchedule.build

    def counted_build(self, *args):
        nonlocal builds
        builds += 1
        return build(self, *args)

    with mock.patch.object(RadixKSchedule, "build", counted_build):
        run_compositing(
            synthetic_subimages(256, 32, 0.2, seed=4), "bsbrc", plan, VIEW_DIR, SP2
        )
    assert builds == 0
