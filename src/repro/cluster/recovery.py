"""The recovery subsystem: checkpoints and the policy lattice.

A lost rank's blocks can re-fold onto the survivors (*degrade*);
this module adds the lossless alternative.  Each rank snapshots its
partial image after every exchange stage, and a failed run is replayed
with every rank moving together — from stage 0, or from the last stage
every rank checkpointed.

Two cooperating pieces:

**Checkpoints** — :class:`StageCheckpointer` is installed on a rank
context (:meth:`~repro.cluster.protocol.BaseRankContext.install_checkpointer`)
and driven by the compositing engine: after each exchange stage it
snapshots the stage's keep part (the only pixels the rest of the run
reads), codec state, and stage counters into a :class:`CheckpointStore`.  The simulator runs all ranks
in one process, so :class:`MemoryCheckpointStore` keeps pickled
snapshots in a dict; the multiprocessing backend crosses process
boundaries, so :class:`DiskCheckpointStore` spills them to
``REPRO_CACHE_DIR`` (or a temp dir) with atomic replace-on-write.
Snapshots are pickled at save time, so later in-place folds never
alias a stored checkpoint.

**Policies** — :class:`RecoveryPolicy` names one point on the lattice

    ``abort`` < ``degrade`` < ``respawn`` < ``checkpoint-resume``

The paper's exchanges are lockstep pairwise ``sendrecv`` calls, so the
one lossless recovery that survives every crash point replays *all*
ranks together, with the fault plan disarmed: ``respawn`` replays every
rank from stage 0, ``checkpoint-resume`` from the store's common stage.
Both run on every backend.  The lattice is resolved at one decision
point — ``SortLastSystem._recover`` — so ``abort``, render-phase
refolding, and the lossless replays share a single code path.

Semantics of ``resume``:

* ``None`` — fresh run, restore nothing (checkpoints are still saved).
* an ``int`` stage — restore that exact stage on *every* rank, so the
  lockstep replay from the common minimum checkpointed stage keeps the
  exchange sequence message-consistent.
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
    "DECLARED_OUTCOMES",
    "RecoveryPolicy",
    "CheckpointSnapshot",
    "CheckpointStore",
    "MemoryCheckpointStore",
    "DiskCheckpointStore",
    "StageCheckpointer",
    "RecoveryRuntime",
    "run_outcome",
]

#: The policy lattice, weakest first; each policy adds one mechanism to
#: the policies on its left.
RECOVERY_POLICIES = ("abort", "degrade", "respawn", "checkpoint-resume")

#: Every way a (possibly faulted) run may legally end under the lattice:
#: ``clean`` — completed with the full-fidelity image and no recovery;
#: ``resumed`` — a failure was absorbed losslessly by the lockstep
#: replay (``respawn`` from stage 0, ``checkpoint-resume`` from the
#: common stage), on every backend alike; ``degraded`` — survivors
#: carry a partial-but-valid image; ``aborted`` — a typed
#: :class:`~repro.errors.ReproError` surfaced.  The schedule explorer
#: asserts every interleaving of a faulted scenario lands on one of
#: these (matching the plan's declared possibilities) or flags the
#: interleaving as a real ordering bug.
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


@dataclass(frozen=True)
class RecoveryPolicy:
    """One point on the recovery lattice."""

    name: str = "degrade"

    def __post_init__(self) -> None:
        if self.name not in RECOVERY_POLICIES:
            raise ConfigurationError(
                f"unknown recovery policy {self.name!r}; "
                f"choose from {RECOVERY_POLICIES}"
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
    def resolve(cls, value: "str | RecoveryPolicy | None") -> "RecoveryPolicy":
        """Coerce a CLI/config value into a policy instance."""
        if isinstance(value, RecoveryPolicy):
            return value
        return cls(name="degrade" if value is None else str(value))


class CheckpointSnapshot(NamedTuple):
    """One rank's state after completing exchange stage ``stage``.

    ``stats`` carries the rank's stage buckets up to and including
    ``stage`` (events excluded — they belong to the live run), so a
    resumed run reproduces byte/message counters bit-identically:
    restored buckets keep their original deterministic counts and
    replayed stages re-count identically.
    """

    stage: int
    intensity: Any  # numpy array, the stage's keep part (part-shaped)
    opacity: Any  # numpy array, the stage's keep part (part-shaped)
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

        Lockstep resume restores all ranks here so the replayed
        exchange sequence stays message-consistent.
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
        restart from the same stage; a torn or foreign file can leave
        the nominal common stage unloadable on some rank.  Rather than
        resume a torn state, return ``None`` — the caller replays from
        scratch, which is equally lossless, just slower.
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
    mid-save never leaves a torn checkpoint to restore from.  The
    instance is picklable — workers inherit it via program args.  Every
    stage stays on disk until :meth:`clear`, so the common stage of a
    crashed run is loadable on every rank: at most P·log2 P snapshots
    per run.
    """

    def __init__(self, root: str, run_id: Optional[str] = None) -> None:
        self.root = root
        self.run_id = run_id or uuid.uuid4().hex[:12]
        os.makedirs(root, exist_ok=True)

    def _path(self, rank: int, stage: int) -> str:
        return os.path.join(self.root, f"ckpt-{self.run_id}-r{rank}-s{stage}.pkl")

    def save(self, rank: int, stage: int, snapshot: CheckpointSnapshot) -> None:
        path = self._path(rank, stage)
        tmp = f"{path}.{os.getpid()}.tmp"
        with open(tmp, "wb") as fh:
            pickle.dump(snapshot, fh, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)

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
        resume: Optional[int] = None,
        sink: Optional[list] = None,
    ) -> None:
        self.store = store
        self.rank = rank
        self.resume = resume
        self.events: list = sink if sink is not None else []

    def restore(self, producer: str) -> Optional[CheckpointSnapshot]:
        """This rank's resume-point snapshot (the caller writes its keep
        part's planes back and applies codec state and stats), or
        ``None`` when there is nothing to restore — no resume requested,
        no snapshot at the resume stage, or a snapshot produced by a
        different compositor (stale store).
        """
        stage = self.resume
        if stage is None:
            return None
        snapshot = self.store.load(self.rank, stage)
        if snapshot is None or snapshot.producer != producer:
            return None
        self.events.append(
            {
                "event": "checkpoint",
                "action": "restore",
                "rank": self.rank,
                "stage": stage,
            }
        )
        return snapshot

    def save(self, stage: int, piece, codec_state, stats: RankStats, producer: str) -> None:
        """Snapshot the rank's post-stage state: ``piece`` is the stage's
        keep part and its planes (the store makes the copy)."""
        self.store.save(
            self.rank,
            stage,
            CheckpointSnapshot(
                stage=stage,
                intensity=piece.intensity,
                opacity=piece.opacity,
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
    resume: Optional[int] = None

