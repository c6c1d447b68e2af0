"""Pluggable event-ordering policies for the discrete-event simulator.

The simulator's default order — pop the min-heap entry ``(clock, rank,
seq)``, draw an ANY_TAG wildcard from the oldest-posted channel, fire a
probabilistic fault rule per its seeded RNG — is *one* legal execution
of a distributed program, not the only one.  A :class:`SchedulePolicy`
makes the residual freedom explicit and pluggable, so the schedule
explorer (:mod:`repro.cluster.explore`) can search delivery orders
instead of trusting a single interleaving per seed.

The policy is consulted at exactly three decision kinds — the three
places the engine has genuine freedom:

``tie``
    Several ranks are READY at the same virtual clock.  Candidates are
    canonically sorted by ``(rank, seq)``; index 0 is the default heap
    order.
``wildcard``
    An ``ANY_TAG`` irecv could match the head of more than one pending
    ``(src, dst, tag)`` isend channel.  Candidates are the channel
    heads, canonically sorted by ``(post_time, tag)``; index 0 is the
    default oldest-post choice.  Only *which channel* is free — the
    head of each per-``(src, dst, tag)`` deque is always taken, so
    FIFO per channel can never be violated (MPI non-overtaking).
``fault``
    A fault rule with ``0 < probability < 1`` is deciding whether to
    fire.  The default seeded-RNG draw is computed first (so RNG state
    is identical whatever the policy answers), then the policy may
    override the boolean.

Everything else is pinned: exact-tag irecvs always take precedence over
wildcards, per-channel queues stay FIFO, rendezvous match timings are
pure functions of the two posts, and probability-1.0 / exhausted rules
are not freedom at all.

One class attribute, :attr:`SchedulePolicy.explores`, switches the
engine between its default order and consulting the policy at all three
kinds.  The base :class:`SchedulePolicy` is that default order (name
``"deterministic"``, never consulted, bit-identical to no policy); every
subclass explores.

Every consulted decision is appended to :attr:`SchedulePolicy.decisions`
— a compact trace (schema ``repro.sched-trace/1``) that
:class:`ReplayPolicy` feeds back to reproduce the exact interleaving
bit-for-bit, with digest checks that catch divergence.  The log lives on
the *policy* object, not the simulator, so one policy instance
accumulates decisions across a whole :class:`~repro.pipeline.system.
SortLastSystem` run including recovery re-runs (degraded / resumed
replays construct fresh simulators but share the policy).
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Any, Optional

from ..errors import ConfigurationError

__all__ = [
    "SCHED_TRACE_SCHEMA",
    "SchedulePolicy",
    "RandomPolicy",
    "AdversarialPolicy",
    "ForcedPrefixPolicy",
    "ReplayPolicy",
    "ADVERSARIAL_MODES",
    "POLICIES",
    "make_policy",
    "load_trace",
    "schedule_meta",
]

#: Schema identifier of the recorded decision trace.
SCHED_TRACE_SCHEMA = "repro.sched-trace/1"

#: Adversarial orderings (see :class:`AdversarialPolicy`).
ADVERSARIAL_MODES = ("starve-low", "starve-high", "delay-longest", "lifo")

#: Policy family names accepted by :func:`make_policy` / ``--policy``.
POLICIES = ("deterministic", "random", "adversarial", "dfs")


def state_digest(parts: Any) -> str:
    """Short stable digest of engine state at a decision point.

    Used both for replay divergence checks and for the DFS driver's
    visited-state deduplication.  ``parts`` must be a repr-stable
    structure (tuples of ints/floats/strings).
    """
    return hashlib.blake2b(repr(parts).encode(), digest_size=8).hexdigest()


class SchedulePolicy:
    """The default order, and the base class of every exploring policy.

    An instance of this class is never consulted: the engine runs its
    default order with zero overhead (the explorer's oracle).  Subclasses
    set :attr:`explores` and override :meth:`choose_index` (and
    optionally :meth:`fault_override`).
    """

    #: Short name recorded in traces, errors, and the run-timeline meta.
    name = "deterministic"
    #: Consult the policy on same-clock heap ties, multi-channel ANY_TAG
    #: wildcard matches and probabilistic fault-rule firing points.
    explores = False

    def __init__(self) -> None:
        #: Recorded decisions, in consultation order.
        self.decisions: list[dict] = []
        #: Optional hard cap on simulator steps (livelock guard); the
        #: engine raises :class:`~repro.errors.LivelockError` past it.
        self.event_budget: Optional[int] = None
        #: Where a failing trace will be (or was) saved; embedded into
        #: :class:`~repro.errors.DeadlockError` for reproducibility.
        self.trace_path: Optional[str] = None

    # ---- decision hooks (called by the engine) -----------------------------
    def decide(self, kind: str, candidates: list[dict], digest: str) -> int:
        """Pick one of ``candidates`` (canonical order; 0 = default).

        Validates the subclass's answer, records the decision, and
        returns the chosen index.
        """
        n = len(candidates)
        choice = self.choose_index(kind, candidates, digest)
        if not (0 <= choice < n):
            raise ConfigurationError(
                f"schedule policy {self.name!r} chose index {choice} "
                f"out of {n} candidates for a {kind!r} decision"
            )
        self.decisions.append(
            {"kind": kind, "n": n, "choice": choice, "state": digest}
        )
        return choice

    def fault_decision(
        self, rank: int, rule_index: int, kind: str, probability: float, default: bool
    ) -> bool:
        """Decide a probabilistic fault firing (records it either way)."""
        fires = self.fault_override(rank, rule_index, kind, probability, default)
        self.decisions.append(
            {
                "kind": "fault",
                "n": 2,
                "choice": int(bool(fires)),
                "rank": rank,
                "rule": rule_index,
                "fault": kind,
            }
        )
        return bool(fires)

    # ---- subclass surface --------------------------------------------------
    def choose_index(self, kind: str, candidates: list[dict], digest: str) -> int:
        return 0

    def fault_override(
        self, rank: int, rule_index: int, kind: str, probability: float, default: bool
    ) -> bool:
        return default

    # ---- trace serialization -----------------------------------------------
    def trace_dict(self, meta: Optional[dict] = None) -> dict:
        return {
            "schema": SCHED_TRACE_SCHEMA,
            "policy": self.name,
            "decisions": [dict(d) for d in self.decisions],
            "meta": dict(meta or {}),
        }

    def save_trace(self, path: str, meta: Optional[dict] = None) -> str:
        """Write the ``repro.sched-trace/1`` JSON; returns ``path``."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.trace_dict(meta), fh, indent=2)
            fh.write("\n")
        self.trace_path = path
        return path

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(name={self.name!r}, decisions={len(self.decisions)})"


class RandomPolicy(SchedulePolicy):
    """Seeded uniform random walk over every decision point."""

    name = "random"
    explores = True

    def __init__(self, seed: int = 0):
        super().__init__()
        self.seed = int(seed)
        self.name = f"random:{self.seed}"
        self._rng = random.Random(seed)

    def choose_index(self, kind: str, candidates: list[dict], digest: str) -> int:
        return self._rng.randrange(len(candidates))

    def fault_override(
        self, rank: int, rule_index: int, kind: str, probability: float, default: bool
    ) -> bool:
        # Independent draw from the policy's own stream (the rule's RNG
        # already consumed its default draw, so plan RNG state is intact).
        return self._rng.random() < probability


class AdversarialPolicy(SchedulePolicy):
    """Worst-case-shaped orders designed to break ordering assumptions.

    Modes (canonical candidate order is the default, index 0):

    ``starve-low``
        Always run the highest-ranked candidate first (lowest rank is
        scheduled last) and draw wildcards from the *newest* channel;
        forces probabilistic faults to fire.
    ``starve-high``
        Mirror image: lowest rank first, oldest channel but highest tag;
        suppresses probabilistic faults.
    ``delay-longest``
        Starve whichever candidate has been runnable the longest (max
        seq = most recently scheduled runs first; newest-posted wildcard
        channel); forces faults.
    ``lifo``
        Stack order: last scheduled runs first, last posted channel
        matches first; default fault draws.
    """

    name = "adversarial"
    explores = True

    def __init__(self, mode: str = "starve-low"):
        super().__init__()
        if mode not in ADVERSARIAL_MODES:
            raise ConfigurationError(
                f"unknown adversarial mode {mode!r}; choose from {ADVERSARIAL_MODES}"
            )
        self.mode = mode
        self.name = f"adversarial:{mode}"

    def choose_index(self, kind: str, candidates: list[dict], digest: str) -> int:
        n = len(candidates)
        if kind == "tie":
            if self.mode == "starve-low":
                return max(range(n), key=lambda i: candidates[i]["rank"])
            if self.mode == "starve-high":
                return min(range(n), key=lambda i: candidates[i]["rank"])
            # delay-longest / lifo: most recently scheduled first.
            return max(range(n), key=lambda i: candidates[i]["seq"])
        # wildcard: candidates carry (post_time, tag) channel heads.
        if self.mode == "starve-high":
            return max(range(n), key=lambda i: candidates[i]["tag"])
        # newest-posted channel first (ties by tag, descending).
        return max(
            range(n),
            key=lambda i: (candidates[i]["post_time"], candidates[i]["tag"]),
        )

    def fault_override(
        self, rank: int, rule_index: int, kind: str, probability: float, default: bool
    ) -> bool:
        if self.mode == "starve-high":
            return False
        if self.mode == "lifo":
            return default
        return True


class ForcedPrefixPolicy(SchedulePolicy):
    """DFS worker: replay a forced choice prefix, then take the default.

    The systematic (``dfs``) driver in :mod:`repro.cluster.explore`
    re-runs the scenario with progressively longer forced prefixes; the
    decisions it records past the prefix enumerate the unexplored
    siblings of each visited decision node.
    """

    name = "dfs"
    explores = True

    def __init__(self, prefix: "list[int] | tuple[int, ...]" = ()):
        super().__init__()
        self.prefix = tuple(int(c) for c in prefix)
        self.name = f"dfs:{len(self.prefix)}"

    def choose_index(self, kind: str, candidates: list[dict], digest: str) -> int:
        depth = len(self.decisions)
        if depth < len(self.prefix):
            forced = self.prefix[depth]
            if forced >= len(candidates):
                # The forced branch no longer exists at this state —
                # fall back to the default rather than crashing (the
                # driver's digest dedup makes this rare).
                return 0
            return forced
        return 0

    def fault_override(
        self, rank: int, rule_index: int, kind: str, probability: float, default: bool
    ) -> bool:
        depth = len(self.decisions)
        if depth < len(self.prefix):
            return bool(self.prefix[depth])
        return default


class ReplayPolicy(SchedulePolicy):
    """Feed a recorded ``repro.sched-trace/1`` (as :func:`load_trace`
    reads and schema-checks it) back through the engine.

    Every decision point consumes the next recorded decision; kind and
    candidate-count mismatches (and, for tie/wildcard points, state
    digests) raise :class:`~repro.errors.ConfigurationError` naming the
    divergence depth instead of silently exploring a different order.
    A trace shorter than the run falls back to the default order — that
    happens only when the recorded run terminated (error or completion)
    before the current one, and the replayed prefix is exact.
    """

    name = "replay"
    explores = True

    def __init__(self, trace: dict):
        super().__init__()
        self.recorded = [dict(d) for d in trace.get("decisions", [])]
        self.name = f"replay:{trace.get('policy', '?')}"

    def _next(self, kind: str, depth: int) -> Optional[dict]:
        if depth >= len(self.recorded):
            return None
        rec = self.recorded[depth]
        if rec.get("kind") != kind:
            raise ConfigurationError(
                f"schedule-trace replay diverged at decision {depth}: "
                f"engine asked for a {kind!r} decision but the trace "
                f"recorded {rec.get('kind')!r}"
            )
        return rec

    def choose_index(self, kind: str, candidates: list[dict], digest: str) -> int:
        depth = len(self.decisions)
        rec = self._next(kind, depth)
        if rec is None:
            return 0
        if rec.get("n") != len(candidates):
            raise ConfigurationError(
                f"schedule-trace replay diverged at decision {depth}: "
                f"{rec.get('n')} candidates recorded, {len(candidates)} live"
            )
        if rec.get("state") and rec["state"] != digest:
            raise ConfigurationError(
                f"schedule-trace replay diverged at decision {depth}: "
                f"state digest {digest} != recorded {rec['state']}"
            )
        return int(rec["choice"])

    def fault_override(
        self, rank: int, rule_index: int, kind: str, probability: float, default: bool
    ) -> bool:
        rec = self._next("fault", len(self.decisions))
        if rec is None:
            return default
        return bool(rec["choice"])


def load_trace(path: str) -> dict:
    """Read a ``repro.sched-trace/1`` JSON document (validates schema)."""
    with open(path, "r", encoding="utf-8") as fh:
        trace = json.load(fh)
    schema = trace.get("schema")
    if schema != SCHED_TRACE_SCHEMA:
        raise ConfigurationError(
            f"unsupported schedule-trace schema {schema!r} "
            f"(expected {SCHED_TRACE_SCHEMA!r})"
        )
    return trace


def make_policy(spec: str, *, seed: int = 0, index: int = 0) -> SchedulePolicy:
    """Build walk ``index`` of a sweep from a CLI-style spec string.

    ``"deterministic"`` | ``"random"`` | ``"random:SEED"`` |
    ``"adversarial"`` | ``"adversarial:MODE"`` | ``"dfs"``.  A random
    walk uses seed ``SEED + index`` (``SEED`` defaults to ``seed``); a
    bare ``adversarial`` rotates :data:`ADVERSARIAL_MODES` by ``index``.
    """
    head, _, arg = str(spec).partition(":")
    if head == "deterministic":
        return SchedulePolicy()
    if head == "random":
        return RandomPolicy((int(arg) if arg else seed) + index)
    if head == "adversarial":
        return AdversarialPolicy(
            arg or ADVERSARIAL_MODES[index % len(ADVERSARIAL_MODES)]
        )
    if head == "dfs":
        return ForcedPrefixPolicy()
    raise ConfigurationError(
        f"unknown schedule policy {spec!r}; choose from {POLICIES} "
        f"(adversarial modes: {ADVERSARIAL_MODES})"
    )


def schedule_meta(policy) -> dict[str, Any]:
    """Timeline ``meta`` entries describing the schedule policy of a run.

    ``{}`` when ``policy`` is ``None`` (the default engine ordering);
    otherwise:

    * ``schedule_policy`` — the policy name (``"random:17"``,
      ``"adversarial:lifo"``, ...);
    * ``schedule_decisions`` — how many recorded decisions the whole
      run took (accumulated across recovery re-runs);
    * ``schedule_trace`` — path of the saved ``repro.sched-trace/1``
      decision trace, when one was written.  This mirrors the trace
      reference embedded in :class:`~repro.errors.DeadlockError`, so a
      run record alone is enough to find the replayable schedule that
      produced it.
    """
    if policy is None:
        return {}
    meta: dict[str, Any] = {
        "schedule_policy": policy.name,
        "schedule_decisions": len(policy.decisions),
    }
    if policy.trace_path is not None:
        meta["schedule_trace"] = str(policy.trace_path)
    return meta
