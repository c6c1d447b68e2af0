"""Deterministic fault injection for every execution substrate.

A :class:`FaultPlan` is a seeded, declarative description of what goes
wrong during a run: message drops, delivery delays, payload corruption,
rank crashes (at a compositing stage or a pipeline phase), and slow-rank
stragglers.  The plan is JSON round-trippable (schema
``repro.fault-plan/1``) so chaos experiments are reproducible artifacts,
and it is injected through the shared
:class:`~repro.cluster.protocol.BaseRankContext` hooks — never through
substrate internals — so the *identical* plan replays the identical
per-rank fault sequence on the simulator and on the real
multiprocessing transport.

Determinism
-----------
Each ``(rank, rule)`` pair owns an independent ``random.Random`` seeded
from ``(plan.seed, rank, rule index)``.  Probabilistic rules consume one
draw per candidate event, and candidate events (sends, stage entries,
phase checkpoints) occur in the same order on every substrate because
rank programs execute the same operation sequence everywhere — so the
decisions, and therefore the injected fault sequence, are bit-identical
across backends.

Fault kinds
-----------
``crash``
    Raise :class:`InjectedCrash` when the rank enters compositing stage
    ``stage`` (via ``begin_stage``) or reaches pipeline phase ``phase``
    (via ``fault_checkpoint``).
``drop``
    Swallow a matching outgoing message: the receiver never sees it and
    the run surfaces a typed :class:`~repro.errors.DeadlockError` /
    :class:`~repro.errors.RankFailedError` instead of hanging.
``delay`` / ``slow``
    Stall the sender for ``seconds`` before a matching send — modelled
    compute time on the simulator, a real sleep on wall-clock
    transports.  ``delay`` defaults to a bounded number of applications;
    ``slow`` defaults to unlimited (a persistent straggler).
``corrupt``
    Damage the encoded payload bytes after the frame checksum is taken,
    so the receiver's CRC32 check raises
    :class:`~repro.errors.WireFormatError`.

Every injected (and detected) fault is recorded as a structured event
dict; the pipeline sinks these into
:class:`~repro.cluster.stats.RankStats` so they flow into the
``repro.run-timeline/1`` document on every backend.
"""

from __future__ import annotations

import json
import random
import zlib
from dataclasses import dataclass
from typing import Any, NamedTuple, Optional

from ..errors import ConfigurationError, SimulationError, WireFormatError

__all__ = [
    "FAULT_PLAN_SCHEMA",
    "FAULT_KINDS",
    "CRASH_PHASES",
    "FaultRule",
    "FaultPlan",
    "MessageFaults",
    "RankFaultInjector",
    "InjectedCrash",
    "CorruptFrame",
    "frame_checksum",
    "check_received",
    "corrupt_bytes",
    "crash_phase_of",
    "crash_stage_of",
    "random_plan",
]

FAULT_PLAN_SCHEMA = "repro.fault-plan/1"

#: Supported fault kinds (see module docstring).
FAULT_KINDS = ("crash", "drop", "delay", "corrupt", "slow")

#: Pipeline phases a crash rule may target via ``fault_checkpoint``.
CRASH_PHASES = ("render", "composite", "gather")


class InjectedCrash(SimulationError):
    """A planned rank crash fired (see :class:`FaultRule` kind ``crash``)."""

    def __init__(self, rank: int, *, stage: Optional[int] = None, phase: Optional[str] = None):
        self.rank = rank
        self.stage = stage
        self.phase = phase
        where = f"phase {phase!r}" if phase is not None else f"stage {stage}"
        super().__init__(f"injected crash on rank {rank} at {where}")


class CorruptFrame:
    """A payload whose bytes were damaged in flight (simulator wire).

    The simulator ships Python objects instead of byte frames, so
    corruption is modelled by wrapping the sender's encoded bytes
    together with the pre-corruption CRC32; the receiver-side
    :func:`check_received` then fails exactly like a real transport's
    frame check.  ``nbytes`` preserves the priced size.
    """

    __slots__ = ("data", "crc", "nbytes")

    def __init__(self, data: bytes, crc: int, nbytes: int):
        self.data = data
        self.crc = int(crc)
        self.nbytes = int(nbytes)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"CorruptFrame({len(self.data)}B, crc={self.crc:#010x})"


def frame_checksum(wire: Any) -> Optional[int]:
    """CRC32 of an encoded wire payload, or ``None`` if unchecksummable.

    Handles the three shapes :func:`~repro.cluster.protocol.encode_payload`
    produces: ``None`` (control message), bytes-like, and contiguous
    buffer objects (numpy arrays).  Non-contiguous exotica return
    ``None`` — the frame then travels unchecked rather than paying a
    copy.
    """
    if wire is None:
        return None
    if isinstance(wire, (bytes, bytearray)):
        return zlib.crc32(wire) & 0xFFFFFFFF
    try:
        view = memoryview(wire)
    except TypeError:
        return None
    if not view.contiguous:
        return None
    return zlib.crc32(view.cast("B")) & 0xFFFFFFFF


def check_received(payload: Any, *, rank: int, src: int, tag: int, backend: str) -> Any:
    """Receiver-side integrity check for simulator-delivered payloads.

    Real transports verify the frame CRC before decoding; the simulator
    delivers objects directly, so only :class:`CorruptFrame` wrappers
    (planted by a ``corrupt`` fault) need checking here.
    """
    if not isinstance(payload, CorruptFrame):
        return payload
    actual = zlib.crc32(payload.data) & 0xFFFFFFFF
    if actual == payload.crc:  # pragma: no cover - corruption always flips bits
        return payload.data
    raise WireFormatError(
        f"rank {rank}: message from rank {src} (tag {tag}, {payload.nbytes}B) "
        f"failed CRC32 check on the {backend} backend "
        f"(expected {payload.crc:#010x}, got {actual:#010x})"
    )


def corrupt_bytes(data: bytes, rng: random.Random) -> bytes:
    """Flip one deterministic byte of ``data`` (appends to empty input)."""
    if not data:
        return b"\xff"
    pos = rng.randrange(len(data))
    out = bytearray(data)
    out[pos] ^= 0xFF
    return bytes(out)


@dataclass(frozen=True)
class FaultRule:
    """One declarative fault.

    ``rank`` is the rank the fault lives on (for message faults: the
    *sender*).  ``stage``/``phase``/``dst``/``tag`` are optional match
    filters (``None`` = any).  ``probability`` gates each candidate
    event through the rule's seeded RNG; ``max_applications`` bounds how
    often the rule fires (0 = unlimited; defaults to 1, except ``slow``
    which defaults to unlimited).  ``seconds`` is the stall magnitude
    for ``delay``/``slow``.
    """

    kind: str
    rank: int
    stage: Optional[int] = None
    phase: Optional[str] = None
    dst: Optional[int] = None
    tag: Optional[int] = None
    probability: float = 1.0
    max_applications: Optional[int] = None
    seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; choose from {FAULT_KINDS}"
            )
        if self.rank < 0:
            raise ConfigurationError(f"fault rank must be >= 0, got {self.rank}")
        if not (0.0 <= self.probability <= 1.0):
            raise ConfigurationError(
                f"probability must be in [0, 1], got {self.probability}"
            )
        if self.max_applications is None:
            object.__setattr__(
                self, "max_applications", 0 if self.kind == "slow" else 1
            )
        elif self.max_applications < 0:
            raise ConfigurationError(
                f"max_applications must be >= 0, got {self.max_applications}"
            )
        if self.seconds < 0:
            raise ConfigurationError(f"seconds must be >= 0, got {self.seconds}")
        if self.kind == "crash":
            if self.phase is not None and self.phase not in CRASH_PHASES:
                raise ConfigurationError(
                    f"crash phase must be one of {CRASH_PHASES}, got {self.phase!r}"
                )
            if self.phase is None and self.stage is None:
                raise ConfigurationError("a crash rule needs stage= or phase=")
        if self.kind in ("delay", "slow") and self.seconds <= 0.0:
            raise ConfigurationError(f"a {self.kind} rule needs seconds > 0")

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"kind": self.kind, "rank": self.rank}
        for key in ("stage", "phase", "dst", "tag"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        if self.probability != 1.0:
            out["probability"] = self.probability
        out["max_applications"] = self.max_applications
        if self.seconds:
            out["seconds"] = self.seconds
        return out

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "FaultRule":
        return cls(
            kind=str(data["kind"]),
            rank=int(data["rank"]),
            stage=None if data.get("stage") is None else int(data["stage"]),
            phase=None if data.get("phase") is None else str(data["phase"]),
            dst=None if data.get("dst") is None else int(data["dst"]),
            tag=None if data.get("tag") is None else int(data["tag"]),
            probability=float(data.get("probability", 1.0)),
            max_applications=(
                None
                if data.get("max_applications") is None
                else int(data["max_applications"])
            ),
            seconds=float(data.get("seconds", 0.0)),
        )


@dataclass(frozen=True)
class FaultPlan:
    """A seeded set of :class:`FaultRule` — the whole chaos scenario."""

    rules: tuple[FaultRule, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        rules = tuple(self.rules)
        for rule in rules:
            if not isinstance(rule, FaultRule):
                raise ConfigurationError(
                    f"FaultPlan.rules must hold FaultRule, got {type(rule).__name__}"
                )
        object.__setattr__(self, "rules", rules)

    def rules_for(self, rank: int) -> list[tuple[int, FaultRule]]:
        """Rules (with their plan-wide index) owned by ``rank``."""
        return [(i, r) for i, r in enumerate(self.rules) if r.rank == rank]

    def injector_for(self, rank: int, sink: Optional[list] = None) -> Optional["RankFaultInjector"]:
        """Build this rank's injector; ``None`` when no rule targets it."""
        if not self.rules_for(rank):
            return None
        return RankFaultInjector(self, rank, sink=sink)

    # ---- serialization -----------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": FAULT_PLAN_SCHEMA,
            "seed": self.seed,
            "rules": [rule.to_dict() for rule in self.rules],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "FaultPlan":
        schema = data.get("schema")
        if schema != FAULT_PLAN_SCHEMA:
            raise ConfigurationError(
                f"unsupported fault-plan schema {schema!r} (expected {FAULT_PLAN_SCHEMA!r})"
            )
        return cls(
            rules=tuple(FaultRule.from_dict(r) for r in data.get("rules", [])),
            seed=int(data.get("seed", 0)),
        )

    def to_json(self, *, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "FaultPlan":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())


class MessageFaults(NamedTuple):
    """What the injector decided for one outgoing message."""

    drop: bool
    corrupt: bool
    delay: float


def _rule_seed(seed: int, rank: int, index: int) -> int:
    return (seed * 1_000_003 + rank * 101 + index * 7_919) & 0xFFFFFFFF


class _Slot:
    """Mutable per-rule firing state (count + seeded RNG)."""

    __slots__ = ("index", "rule", "rng", "applied")

    def __init__(self, index: int, rule: FaultRule, seed: int, rank: int):
        self.index = index
        self.rule = rule
        self.rng = random.Random(_rule_seed(seed, rank, index))
        self.applied = 0


class RankFaultInjector:
    """One rank's deterministic view of a :class:`FaultPlan`.

    Installed on a rank context via
    :meth:`~repro.cluster.protocol.BaseRankContext.install_fault_injector`;
    the context calls :meth:`on_stage` from ``begin_stage``,
    :meth:`on_message` before every send verb, and rank programs call
    :meth:`checkpoint` at phase boundaries.  Every fired rule appends a
    structured event dict to ``events`` (typically the rank's
    ``stats.events`` so the timeline collects them).
    """

    def __init__(self, plan: FaultPlan, rank: int, sink: Optional[list] = None):
        self.plan = plan
        self.rank = rank
        self.events: list = sink if sink is not None else []
        #: Optional schedule-exploration override for *probabilistic*
        #: firing points: ``decider(rank, rule_index, kind, probability,
        #: default) -> bool``.  Consulted only where the plan has genuine
        #: freedom (0 < probability < 1) and always *after* the rule's
        #: seeded RNG drew its default — so plan RNG state is identical
        #: whatever the decider answers, and deterministic rules stay
        #: deterministic.  Wired by the simulator's rank context when a
        #: :class:`~repro.cluster.schedule_policy.SchedulePolicy`
        #: explores.
        self.decider = None
        self._slots = [
            _Slot(index, rule, plan.seed, rank)
            for index, rule in plan.rules_for(rank)
        ]
        # Dedicated stream for corruption byte positions, independent of
        # the firing decisions so adding rules never shifts the damage.
        self._corrupt_rng = random.Random(_rule_seed(plan.seed, rank, -1))

    # ---- internals ---------------------------------------------------------
    def _fires(self, slot: _Slot) -> bool:
        rule = slot.rule
        if rule.max_applications and slot.applied >= rule.max_applications:
            return False
        if rule.probability < 1.0:
            fires = slot.rng.random() < rule.probability
            if self.decider is not None:
                fires = bool(
                    self.decider(
                        self.rank, slot.index, rule.kind, rule.probability, fires
                    )
                )
            if not fires:
                return False
        slot.applied += 1
        return True

    def _record(self, fault: str, slot: _Slot, **fields: Any) -> dict:
        event = {"event": "injected", "fault": fault, "rank": self.rank, "rule": slot.index}
        event.update({k: v for k, v in fields.items() if v is not None})
        self.events.append(event)
        return event

    # ---- hooks -------------------------------------------------------------
    def on_stage(self, stage: int) -> None:
        """Called when the rank enters compositing stage ``stage``."""
        for slot in self._slots:
            rule = slot.rule
            if rule.kind != "crash" or rule.phase is not None or rule.stage != stage:
                continue
            if self._fires(slot):
                self._record("crash", slot, stage=stage)
                raise InjectedCrash(self.rank, stage=stage)

    def checkpoint(self, phase: str, stage: Optional[int] = None) -> None:
        """Called by the pipeline at phase boundaries."""
        for slot in self._slots:
            rule = slot.rule
            if rule.kind != "crash" or rule.phase != phase:
                continue
            if self._fires(slot):
                self._record("crash", slot, phase=phase, stage=stage)
                raise InjectedCrash(self.rank, phase=phase)

    def on_message(self, verb: str, dst: int, tag: int, stage: int) -> Optional[MessageFaults]:
        """Faults for one outgoing message; ``None`` means clean."""
        drop = corrupt = False
        delay = 0.0
        for slot in self._slots:
            rule = slot.rule
            if rule.kind not in ("drop", "delay", "corrupt", "slow"):
                continue
            if rule.stage is not None and rule.stage != stage:
                continue
            if rule.dst is not None and rule.dst != dst:
                continue
            if rule.tag is not None and rule.tag != tag:
                continue
            if not self._fires(slot):
                continue
            if rule.kind == "drop":
                drop = True
                self._record("drop", slot, verb=verb, dst=dst, tag=tag, stage=stage)
            elif rule.kind == "corrupt":
                corrupt = True
                self._record("corrupt", slot, verb=verb, dst=dst, tag=tag, stage=stage)
            else:
                delay += rule.seconds
                self._record(
                    rule.kind, slot, verb=verb, dst=dst, tag=tag, stage=stage,
                    seconds=rule.seconds,
                )
        if not (drop or corrupt or delay):
            return None
        return MessageFaults(drop=drop, corrupt=corrupt, delay=delay)

    # ---- corruption payloads ----------------------------------------------
    def damage_wire(self, raw: bytes) -> bytes:
        """Corrupt already-checksummed raw frame bytes (real transports)."""
        return corrupt_bytes(raw, self._corrupt_rng)

    def wrap_for_sim(self, payload: Any, nbytes: int) -> CorruptFrame:
        """Model corruption of an in-simulator payload.

        Encodes the payload to bytes, checksums them, then damages the
        copy that travels — mirroring what :meth:`damage_wire` does to a
        real frame.
        """
        from .protocol import encode_payload

        wire, _, pickled = encode_payload(payload)
        if wire is None:
            raw = b""
        elif isinstance(wire, (bytes, bytearray)):
            raw = bytes(wire)
        else:
            raw = bytes(memoryview(wire).cast("B"))
        del pickled  # the receiver never decodes a corrupt frame
        crc = zlib.crc32(raw) & 0xFFFFFFFF
        return CorruptFrame(self.damage_wire(raw), crc, nbytes)


def crash_phase_of(err: BaseException) -> Optional[str]:
    """Pipeline phase of an injected crash behind ``err``, if any.

    Works across substrates: the simulator wraps the live
    :class:`InjectedCrash` in ``err.original``; the multiprocessing
    supervisor ships the phase as ``err.fault_phase``.
    """
    original = getattr(err, "original", None)
    if isinstance(original, InjectedCrash):
        return original.phase
    phase = getattr(err, "fault_phase", None)
    return phase if isinstance(phase, str) else None


def crash_stage_of(err: BaseException) -> Optional[int]:
    """Compositing stage of an injected crash behind ``err``, if any.

    The simulator wraps the live :class:`InjectedCrash` in
    ``err.original``; the multiprocessing supervisor ships the stage as
    ``err.fault_stage``.  Phase crashes (``render``/``gather``) have no
    stage and return ``None``.
    """
    original = getattr(err, "original", None)
    if isinstance(original, InjectedCrash):
        return original.stage
    stage = getattr(err, "fault_stage", None)
    return stage if isinstance(stage, int) else None


def random_plan(seed: int, *, num_ranks: int = 4, num_stages: int = 2) -> FaultPlan:
    """One seeded random chaos scenario: 1-3 rules over every fault kind.

    Shared by the chaos test matrix and the nightly soak loop so a
    failing soak seed is reproducible as a plan file artifact.
    """
    rng = random.Random(seed)
    rules: list[FaultRule] = []
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(FAULT_KINDS)
        rank = rng.randrange(num_ranks)
        if kind == "crash":
            if rng.random() < 0.5:
                rules.append(
                    FaultRule(kind="crash", rank=rank, stage=rng.randrange(num_stages))
                )
            else:
                rules.append(
                    FaultRule(kind="crash", rank=rank, phase=rng.choice(CRASH_PHASES))
                )
        elif kind in ("delay", "slow"):
            rules.append(
                FaultRule(
                    kind=kind,
                    rank=rank,
                    seconds=rng.choice((0.005, 0.02)),
                    max_applications=rng.choice((1, 2, 0)),
                )
            )
        else:
            rules.append(
                FaultRule(
                    kind=kind,
                    rank=rank,
                    stage=rng.randrange(num_stages),
                    probability=rng.choice((1.0, 0.5)),
                )
            )
    return FaultPlan(rules=tuple(rules), seed=rng.randrange(1 << 16))
