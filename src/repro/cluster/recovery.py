"""The recovery subsystem: checkpoints, respawn plans, and policies.

PR 3 taught the system to *degrade* — a rank lost in the render phase
re-folds onto survivors.  This module upgrades the failure story to
*recover*: a mid-compositing crash no longer throws away every rank's
render, because each rank snapshots its partial image after every
exchange stage and the run resumes from the last completed stage.

Three cooperating pieces:

**Checkpoints** — :class:`StageCheckpointer` is installed on a rank
context (:meth:`~repro.cluster.protocol.BaseRankContext.install_checkpointer`)
and driven by the compositing engine: after each exchange stage it
snapshots the rank's partial image planes, codec state, and stage
counters into a :class:`CheckpointStore`.  The simulator runs all ranks
in one process, so :class:`MemoryCheckpointStore` keeps pickled
snapshots in a dict; the multiprocessing backend crosses process
boundaries, so :class:`DiskCheckpointStore` spills them to
``REPRO_CACHE_DIR`` (or a temp dir) with atomic replace-on-write.
Snapshots are pickled at save time, so later in-place image mutation
never aliases a stored checkpoint.

**Policies** — :class:`RecoveryPolicy` names one point on the lattice

    ``abort`` < ``degrade`` < ``respawn`` < ``checkpoint-resume``

where each policy may *fall back* to every weaker one: a respawn whose
budget is exhausted (or whose replay would violate the message protocol)
degrades; a crash that cannot degrade aborts.  The lattice is resolved
at one decision point — ``SortLastSystem._recover`` — so ``abort``,
render-phase refolding, and the lossless mechanisms share a single code path.

**Respawn plans** — :class:`RespawnPlan` tells the multiprocessing
supervisor how to restart a dead worker in place: the replacement
program args (fault injection stripped, resume pointed at the rank's
latest checkpoint) and the bounded restart budget.  A replay is only
protocol-safe when the dead rank either never sent a message (its
peers' frames still sit in its inbound queues) or has a checkpoint
marking exactly which stages' sends already happened; the supervisor
checks both before burning budget.

Semantics of ``resume``:

* ``None`` — fresh run, restore nothing (checkpoints are still saved).
* :data:`RESUME_LATEST` — restore this rank's newest snapshot
  (multiprocessing respawn: the rank rejoins mid-protocol, so it must
  resume exactly where it left off).
* an ``int`` stage — restore that exact stage on *every* rank
  (simulator resume: all ranks replay in lockstep from the common
  minimum checkpointed stage, keeping the exchange sequence
  message-consistent).
"""

from __future__ import annotations

import abc
import os
import pickle
import uuid
from dataclasses import dataclass
from typing import Any, NamedTuple, Optional

from ..errors import ConfigurationError
from .stats import RankStats

__all__ = [
    "RECOVERY_POLICIES",
    "RESUME_LATEST",
    "DECLARED_OUTCOMES",
    "RecoveryPolicy",
    "CheckpointSnapshot",
    "CheckpointStore",
    "MemoryCheckpointStore",
    "DiskCheckpointStore",
    "StageCheckpointer",
    "RecoveryRuntime",
    "RespawnPlan",
    "run_outcome",
]

#: The policy lattice, weakest first; each policy may fall back to any
#: policy to its left when its own mechanism is inapplicable/exhausted.
RECOVERY_POLICIES = ("abort", "degrade", "respawn", "checkpoint-resume")

#: Every way a (possibly faulted) run may legally end under the lattice:
#: ``clean`` — completed with the full-fidelity image and no recovery;
#: ``resumed`` — a failure was absorbed losslessly (checkpoint resume or
#: in-place respawn); ``degraded`` — survivors carry a partial-but-valid
#: image; ``aborted`` — a typed :class:`~repro.errors.ReproError`
#: surfaced.  The schedule explorer asserts every interleaving of a
#: faulted scenario lands on one of these (matching the plan's declared
#: possibilities) or flags the interleaving as a real ordering bug.
DECLARED_OUTCOMES = ("clean", "resumed", "degraded", "aborted")


def run_outcome(*, degraded: bool, recovered: bool) -> str:
    """Name a completed run's outcome on the :data:`DECLARED_OUTCOMES`
    lattice (``aborted`` never reaches here — it is an exception path).
    """
    if degraded:
        return "degraded"
    if recovered:
        return "resumed"
    return "clean"

#: ``resume`` sentinel: restore the rank's newest checkpoint (mp respawn).
RESUME_LATEST = "latest"


@dataclass(frozen=True)
class RecoveryPolicy:
    """One point on the recovery lattice plus its knobs."""

    name: str = "degrade"
    respawn_budget: int = 2

    def __post_init__(self) -> None:
        if self.name not in RECOVERY_POLICIES:
            raise ConfigurationError(
                f"unknown recovery policy {self.name!r}; "
                f"choose from {RECOVERY_POLICIES}"
            )
        if self.respawn_budget < 0:
            raise ConfigurationError(
                f"respawn_budget must be >= 0, got {self.respawn_budget}"
            )

    @property
    def level(self) -> int:
        return RECOVERY_POLICIES.index(self.name)

    @property
    def allows_degrade(self) -> bool:
        return self.level >= 1

    @property
    def allows_respawn(self) -> bool:
        return self.level >= 2

    @property
    def allows_resume(self) -> bool:
        return self.level >= 3

    @classmethod
    def resolve(
        cls, value: "str | RecoveryPolicy | None", *, respawn_budget: Optional[int] = None
    ) -> "RecoveryPolicy":
        """Coerce a CLI/config value into a policy instance."""
        if isinstance(value, RecoveryPolicy):
            return value
        name = "degrade" if value is None else str(value)
        budget = 2 if respawn_budget is None else int(respawn_budget)
        return cls(name=name, respawn_budget=budget)


class CheckpointSnapshot(NamedTuple):
    """One rank's state after completing exchange stage ``stage``.

    ``stats`` carries the rank's stage buckets up to and including
    ``stage`` (events excluded — they belong to the live run), so a
    resumed run reproduces byte/message counters bit-identically:
    restored buckets keep their original deterministic counts and
    replayed stages re-count identically.
    """

    stage: int
    intensity: Any  # numpy array, full-frame intensity plane
    opacity: Any  # numpy array, full-frame opacity plane
    codec_state: Any
    stats: RankStats
    producer: str


def _stats_for_snapshot(stats: RankStats) -> RankStats:
    """Stage buckets only; the store's pickling makes the deep copy."""
    copy = RankStats(rank=stats.rank)
    copy.stages.update(stats.stages)
    return copy


class CheckpointStore(abc.ABC):
    """Where stage snapshots live.  Keys are ``(rank, stage)``."""

    @abc.abstractmethod
    def save(self, rank: int, stage: int, snapshot: CheckpointSnapshot) -> None:
        """Persist one snapshot (an isolating copy, not a reference)."""

    @abc.abstractmethod
    def load(self, rank: int, stage: int) -> Optional[CheckpointSnapshot]:
        """Fetch a snapshot, or ``None`` when absent/unreadable."""

    @abc.abstractmethod
    def latest_stage(self, rank: int) -> Optional[int]:
        """Highest checkpointed stage for ``rank`` (``None`` if none)."""

    @abc.abstractmethod
    def clear(self) -> None:
        """Discard every snapshot this store owns."""

    def common_stage(self, num_ranks: int) -> Optional[int]:
        """Highest stage checkpointed by *every* rank, or ``None``.

        Lockstep resume on the simulator restores all ranks here so the
        replayed exchange sequence stays message-consistent.
        """
        latest: list[int] = []
        for rank in range(num_ranks):
            stage = self.latest_stage(rank)
            if stage is None:
                return None
            latest.append(stage)
        return min(latest)

    def resumable_stage(self, num_ranks: int) -> Optional[int]:
        """The :meth:`common_stage`, verified loadable on *every* rank.

        Lockstep resume is only protocol-consistent when all ranks
        restart from the same stage; a compacting store (or a crash
        mid-save) can leave the nominal common stage unloadable on a
        rank that already moved past it.  Rather than resume a torn
        state, return ``None`` — the caller replays from scratch, which
        is equally lossless, just slower.
        """
        stage = self.common_stage(num_ranks)
        if stage is None:
            return None
        if all(self.load(rank, stage) is not None for rank in range(num_ranks)):
            return stage
        return None


class MemoryCheckpointStore(CheckpointStore):
    """In-process store (simulator): pickled blobs in a dict.

    Pickling at save time isolates the snapshot from the live image the
    engine keeps mutating in place.
    """

    def __init__(self) -> None:
        self._blobs: dict[tuple[int, int], bytes] = {}

    def save(self, rank: int, stage: int, snapshot: CheckpointSnapshot) -> None:
        self._blobs[(rank, stage)] = pickle.dumps(
            snapshot, protocol=pickle.HIGHEST_PROTOCOL
        )

    def load(self, rank: int, stage: int) -> Optional[CheckpointSnapshot]:
        blob = self._blobs.get((rank, stage))
        return None if blob is None else pickle.loads(blob)

    def latest_stage(self, rank: int) -> Optional[int]:
        stages = [s for r, s in self._blobs if r == rank]
        return max(stages) if stages else None

    def clear(self) -> None:
        self._blobs.clear()


class DiskCheckpointStore(CheckpointStore):
    """Cross-process store (multiprocessing): one file per snapshot.

    Writes are atomic (temp file + ``os.replace``) so a rank crashing
    mid-save never leaves a torn checkpoint for the supervisor to
    restore from.  The instance is picklable — workers inherit it via
    program args and the supervisor consults it when deciding whether a
    respawn is protocol-safe.

    With ``compact=True`` (default), landing stage ``k`` deletes that
    rank's snapshots for stages ``< k``, so the store holds at most one
    file per rank instead of one per (rank, stage).  Safe because every
    restore path reads the *latest* stage: mp respawns restore
    ``RESUME_LATEST`` per rank, and the simulator's common-stage resume
    uses the in-memory store.  The delete runs *after* the replace, so a
    crash mid-compaction can only leave an extra older file — never lose
    the newest one.
    """

    def __init__(
        self, root: str, run_id: Optional[str] = None, *, compact: bool = True
    ) -> None:
        self.root = root
        self.run_id = run_id or uuid.uuid4().hex[:12]
        self.compact = bool(compact)
        os.makedirs(root, exist_ok=True)

    def _path(self, rank: int, stage: int) -> str:
        return os.path.join(self.root, f"ckpt-{self.run_id}-r{rank}-s{stage}.pkl")

    def save(self, rank: int, stage: int, snapshot: CheckpointSnapshot) -> None:
        path = self._path(rank, stage)
        tmp = f"{path}.{os.getpid()}.tmp"
        with open(tmp, "wb") as fh:
            pickle.dump(snapshot, fh, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)
        if self.compact:
            self._drop_older(rank, stage)

    def _drop_older(self, rank: int, stage: int) -> None:
        """Delete this rank's snapshots for stages strictly below ``stage``."""
        prefix = f"ckpt-{self.run_id}-r{rank}-s"
        try:
            names = os.listdir(self.root)
        except OSError:
            return
        for name in names:
            if not (name.startswith(prefix) and name.endswith(".pkl")):
                continue
            try:
                old = int(name[len(prefix):-4])
            except ValueError:
                continue
            if old < stage:
                try:
                    os.remove(os.path.join(self.root, name))
                except OSError:
                    pass  # best-effort: a leftover file only wastes space

    def load(self, rank: int, stage: int) -> Optional[CheckpointSnapshot]:
        try:
            with open(self._path(rank, stage), "rb") as fh:
                return pickle.load(fh)
        except (OSError, pickle.UnpicklingError, EOFError):
            return None

    def latest_stage(self, rank: int) -> Optional[int]:
        prefix = f"ckpt-{self.run_id}-r{rank}-s"
        stages: list[int] = []
        try:
            names = os.listdir(self.root)
        except OSError:
            return None
        for name in names:
            if name.startswith(prefix) and name.endswith(".pkl"):
                try:
                    stages.append(int(name[len(prefix):-4]))
                except ValueError:
                    continue
        return max(stages) if stages else None

    def clear(self) -> None:
        prefix = f"ckpt-{self.run_id}-"
        try:
            names = os.listdir(self.root)
        except OSError:
            return
        for name in names:
            if name.startswith(prefix):
                try:
                    os.remove(os.path.join(self.root, name))
                except OSError:
                    pass


class StageCheckpointer:
    """One rank's checkpoint driver, installed on its context.

    The compositing engine calls :meth:`restore` before its stage loop
    (returning the snapshot to resume from, or ``None`` for a fresh
    run) and :meth:`save` after each completed exchange stage.  Every
    action is recorded as a structured ``checkpoint`` event in ``sink``
    (typically ``ctx.stats.events``) so the run timeline carries the
    full recovery audit trail.  Saves record **events only, never
    counters** — checkpointing must not perturb the bit-identical
    byte/message accounting the acceptance contract checks.
    """

    def __init__(
        self,
        store: CheckpointStore,
        rank: int,
        *,
        resume: "None | int | str" = None,
        sink: Optional[list] = None,
    ) -> None:
        self.store = store
        self.rank = rank
        self.resume = resume
        self.events: list = sink if sink is not None else []

    def _resume_stage(self) -> Optional[int]:
        if self.resume is None:
            return None
        if self.resume == RESUME_LATEST:
            return self.store.latest_stage(self.rank)
        return int(self.resume)

    def restore(self, image, producer: str) -> Optional[CheckpointSnapshot]:
        """Restore this rank's resume-point snapshot into ``image``.

        Returns the snapshot (caller applies codec state and stats) or
        ``None`` when there is nothing to restore — no resume requested,
        no snapshot at the resume stage, or a snapshot produced by a
        different compositor (stale store).
        """
        stage = self._resume_stage()
        if stage is None:
            return None
        snapshot = self.store.load(self.rank, stage)
        if snapshot is None or snapshot.producer != producer:
            return None
        image.intensity[...] = snapshot.intensity
        image.opacity[...] = snapshot.opacity
        self.events.append(
            {
                "event": "checkpoint",
                "action": "restore",
                "rank": self.rank,
                "stage": stage,
            }
        )
        return snapshot

    def save(self, stage: int, image, codec_state, stats: RankStats, producer: str) -> None:
        """Snapshot the rank's post-stage state (store makes the copy)."""
        self.store.save(
            self.rank,
            stage,
            CheckpointSnapshot(
                stage=stage,
                intensity=image.intensity,
                opacity=image.opacity,
                codec_state=codec_state,
                stats=_stats_for_snapshot(stats),
                producer=producer,
            ),
        )
        self.events.append(
            {
                "event": "checkpoint",
                "action": "save",
                "rank": self.rank,
                "stage": stage,
            }
        )


class RecoveryRuntime(NamedTuple):
    """Per-run recovery wiring shipped to rank programs via args.

    ``store`` is where checkpoints go (``None`` disables them);
    ``resume`` selects the restore point (see module docstring).
    """

    store: Optional[CheckpointStore] = None
    resume: "None | int | str" = None


class RespawnPlan(NamedTuple):
    """Instructions for the multiprocessing supervisor's in-place respawn.

    ``budget`` bounds total restarts across the run; ``args`` replaces
    the dead worker's program args (fault plan stripped, ``resume``
    pointed at :data:`RESUME_LATEST`); ``store`` — when present — lets
    the supervisor verify a checkpoint exists before replaying a rank
    that already sent messages.
    """

    budget: int
    args: tuple
    store: Optional[CheckpointStore] = None
