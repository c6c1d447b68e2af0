"""Systematic interleaving exploration over the simulated cluster.

The discrete-event simulator is deterministic, which makes every test a
test of *one* interleaving.  Real clusters do not schedule that kindly:
same-time events race, ANY_TAG receives match whichever message the
fabric delivered first, and probabilistic faults fire or don't.  This
module searches that residual freedom.  An :class:`Explorer` runs N
interleavings of one *scenario* (a
:class:`~repro.pipeline.config.RunConfig` × a fault plan), each driven
by a :class:`~repro.cluster.schedule_policy.SchedulePolicy`, and
classifies every run against a deterministic baseline:

* a completed non-degraded run must be **bit-identical** — pixels and
  the integer protocol counters (bytes/messages per stage) must equal
  the fault-free reference exactly (virtual-time floats may differ: a
  reordered link serialisation shifts timings but never payloads);
* a run absorbed by the recovery subsystem must land in a **declared
  outcome** (:data:`~repro.cluster.recovery.DECLARED_OUTCOMES`) with a
  self-consistent image — degraded pixels are validated against the
  survivor-composite reference;
* a typed abort (:class:`~repro.errors.RankFailedError` lineage) counts
  as the declared ``aborted`` outcome only when the plan contains
  destructive rules that can cause it;
* anything else — deadlock, livelock past the event budget, wrong
  pixels, counter drift, an unexpected exception — is a **failure**:
  the run's decision trace (schema ``repro.sched-trace/1``) is saved
  and :func:`Explorer.replay` reproduces the exact interleaving from it.

:meth:`Explorer.run` takes one policy spec: interleaving ``i`` runs
under :func:`~repro.cluster.schedule_policy.make_policy` ``(spec,
seed=seed, index=i)`` — seeded ``random`` walks, the ``adversarial``
rotation, or one fixed policy — except ``dfs``, bounded systematic
enumeration that re-runs with progressively longer forced decision
prefixes (:class:`~repro.cluster.schedule_policy.ForcedPrefixPolicy`),
expanding unexplored siblings depth-first and deduplicating revisited
decision states by digest.

Every saved trace embeds its scenario as ``meta["scenario"]``:
``{"config": <the config's non-default fields as RunConfig keyword
arguments, the machine by preset name>, "fault_plan": <plan document,
when armed>}`` — the file alone rebuilds the run.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, fields
from typing import Any, Optional

import numpy as np

from ..errors import (
    ConfigurationError,
    DeadlockError,
    LivelockError,
    RankFailedError,
    ReproError,
)
from .faults import FaultPlan, FaultRule
from .model import PRESETS
from .recovery import DECLARED_OUTCOMES
from .schedule_policy import (
    ForcedPrefixPolicy,
    ReplayPolicy,
    SchedulePolicy,
    load_trace,
    make_policy,
)

__all__ = [
    "EXPLORE_REPORT_SCHEMA",
    "DEFAULT_EVENT_BUDGET",
    "InterleavingResult",
    "ExploreReport",
    "Explorer",
    "default_fault_plan",
]

#: Schema identifier of the exploration report document.
EXPLORE_REPORT_SCHEMA = "repro.explore-report/1"

#: Default per-interleaving simulator-step cap (livelock guard).  Small
#: scenarios take a few thousand steps; two orders of magnitude of
#: headroom keeps honest runs clear while catching genuine livelock
#: long before the simulator's own ``max_steps`` valve.
DEFAULT_EVENT_BUDGET = 500_000

#: Classification labels a single interleaving can land on.  The first
#: four are successes (bit-identical or a declared recovery outcome);
#: the rest are failures that save a replayable trace.
CLASSIFICATIONS = (
    "identical",
    "degraded",
    "resumed",
    "aborted",
    "wrong-pixels",
    "counter-mismatch",
    "deadlock",
    "livelock",
    "replay-divergence",
    "unexpected-error",
)

#: Fault kinds that can legitimately end a run in a typed abort.
_DESTRUCTIVE_KINDS = frozenset({"crash", "drop", "corrupt"})


def default_fault_plan(num_ranks: int = 8, *, seed: int = 7) -> FaultPlan:
    """The canonical crash+delay chaos plan for exploration sweeps.

    A coin-flip crash on the last rank at compositing stage 0 (the
    probabilistic rule is a genuine *fault* decision point for the
    policies — and stage 0 exists for every method, including the
    tile-routed engine which books all compositing there) plus a
    deterministic send delay on rank 1 — enough to drag the recovery
    subsystem into the explored state space.
    """
    victim = max(0, num_ranks - 1)
    return FaultPlan(
        rules=(
            FaultRule(kind="crash", rank=victim, stage=0, probability=0.5),
            FaultRule(kind="delay", rank=1 % num_ranks, seconds=5e-4),
        ),
        seed=seed,
    )


def _destructive(plan: Optional[FaultPlan]) -> bool:
    """Whether ``plan`` can legitimately abort/degrade a run."""
    return plan is not None and any(r.kind in _DESTRUCTIVE_KINDS for r in plan.rules)


def _config_doc(config) -> dict[str, Any]:
    """``config``'s non-default fields as ``RunConfig`` keyword arguments
    (the shape of a spool job's ``deltas``), the machine by preset name."""
    from ..pipeline.config import RunConfig

    default = RunConfig()
    doc: dict[str, Any] = {}
    for f in fields(config):
        value = getattr(config, f.name)
        if value == getattr(default, f.name):
            continue
        if f.name == "machine":
            if PRESETS.get(value.name) != value:
                raise ConfigurationError(
                    f"machine {value.name!r} is not a preset; an explored "
                    "scenario records its machine by preset name"
                )
            value = value.name
        doc[f.name] = value
    return doc


@dataclass
class InterleavingResult:
    """One explored interleaving, classified."""

    index: int
    policy: str
    classification: str
    decisions: int
    outcome: Optional[str] = None
    detail: str = ""
    trace_path: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.classification in ("identical",) + DECLARED_OUTCOMES

    def to_dict(self) -> dict[str, Any]:
        out = {
            "index": self.index,
            "policy": self.policy,
            "classification": self.classification,
            "decisions": self.decisions,
        }
        if self.outcome is not None:
            out["outcome"] = self.outcome
        if self.detail:
            out["detail"] = self.detail
        if self.trace_path is not None:
            out["trace"] = self.trace_path
        return out


@dataclass
class ExploreReport:
    """Aggregate of one exploration sweep (JSON: ``repro.explore-report/1``)."""

    scenario: dict[str, Any]
    results: list[InterleavingResult] = field(default_factory=list)

    @property
    def failures(self) -> list[InterleavingResult]:
        return [r for r in self.results if not r.ok]

    @property
    def ok(self) -> bool:
        return not self.failures

    def counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for r in self.results:
            counts[r.classification] = counts.get(r.classification, 0) + 1
        return counts

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": EXPLORE_REPORT_SCHEMA,
            "scenario": self.scenario,
            "interleavings": len(self.results),
            "ok": self.ok,
            "counts": self.counts(),
            "results": [r.to_dict() for r in self.results],
        }

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")


def _pixels(image) -> np.ndarray:
    """A subimage's planes as one array — the pixel-identity surface."""
    return np.stack([image.intensity, image.opacity]).copy()


def _int_counters(timeline) -> list[tuple]:
    """The integer protocol counters of a run — the bit-identity surface.

    Floats (comp/comm/wait seconds) are deliberately excluded: policy
    reorderings shift link-serialisation timings without changing a
    single payload byte, and the makespan difference is *expected*.
    """
    out = []
    for rs in timeline.rank_stats:
        for st in rs.sorted_stages():
            out.append(
                (
                    rs.rank,
                    st.stage,
                    st.bytes_sent,
                    st.bytes_recv,
                    st.msgs_sent,
                    st.msgs_recv,
                    tuple(sorted(st.counters.items())),
                )
            )
    return out


@dataclass
class _Baseline:
    """Deterministic oracle of one scenario."""

    pixels: np.ndarray
    counters: list[tuple]
    outcome: str


class Explorer:
    """Run and classify many interleavings of one scenario.

    Parameters
    ----------
    config:
        The run to explore; its backend must be ``"sim"``.
    fault_plan:
        Faults armed on every interleaving (``None``: a clean run).
    trace_dir:
        Directory for saved decision traces.  Failing interleavings
        always save a trace here (created on demand); pass
        ``keep_all=True`` to save every explored trace.
    event_budget:
        Per-interleaving simulator-step cap; exceeding it classifies
        the run as ``livelock``.
    keep_all:
        Save traces of passing interleavings too (soak archaeology).
    """

    def __init__(
        self,
        config,
        fault_plan: Optional[FaultPlan] = None,
        *,
        trace_dir: Optional[str] = None,
        event_budget: int = DEFAULT_EVENT_BUDGET,
        keep_all: bool = False,
    ):
        if config.backend != "sim":
            raise ConfigurationError(f"the explorer drives the simulator, not {config.backend!r}")
        self.config = config
        self.fault_plan = fault_plan
        #: ``meta["scenario"]`` of every saved trace and the report.
        self.scenario: dict[str, Any] = {"config": _config_doc(config)}
        if fault_plan is not None:
            self.scenario["fault_plan"] = fault_plan.to_dict()
        self.trace_dir = trace_dir
        self.event_budget = int(event_budget)
        self.keep_all = bool(keep_all)
        self._baseline: Optional[_Baseline] = None
        self._reference_pixels: Optional[np.ndarray] = None

    def label(self) -> str:
        plan = "clean"
        if self.fault_plan is not None and self.fault_plan.rules:
            plan = "+".join(sorted({r.kind for r in self.fault_plan.rules}))
        return f"{self.config.method}@P{self.config.num_ranks}/{plan}"

    # ---- plumbing ----------------------------------------------------------
    def _execute(self, policy: SchedulePolicy):
        """One full pipeline run of the scenario under ``policy``."""
        from ..pipeline.system import SortLastSystem

        policy.event_budget = self.event_budget
        return SortLastSystem(self.config).run(
            fault_plan=self.fault_plan, schedule_policy=policy
        )

    def baseline(self) -> _Baseline:
        """The deterministic oracle run (memoized).

        Two runs pin it down: the scenario under the deterministic
        policy with its fault plan (fixing the declared outcome every
        explored run is compared against), and — when that run degraded
        or the plan is destructive — a fault-free clean run whose pixels
        are the bit-identity reference for non-degraded completions.
        """
        if self._baseline is not None:
            return self._baseline
        result = self._execute(SchedulePolicy())
        outcome = result.timeline.meta["outcome"]
        if outcome == "clean":
            clean_pixels = _pixels(result.final_image)
        else:
            clean_pixels = self._clean_reference()
        self._baseline = _Baseline(
            pixels=clean_pixels,
            counters=_int_counters(result.timeline),
            outcome=outcome,
        )
        return self._baseline

    def _clean_reference(self) -> np.ndarray:
        """Pixels of the scenario run with no faults at all."""
        if self._reference_pixels is None:
            from ..pipeline.system import SortLastSystem

            clean = SortLastSystem(self.config).run()
            self._reference_pixels = _pixels(clean.final_image)
        return self._reference_pixels

    def _trace_file(self, policy: SchedulePolicy, index: int) -> Optional[str]:
        if self.trace_dir is None:
            return None
        slug = policy.name.replace(":", "-").replace("/", "-")
        return os.path.join(self.trace_dir, f"trace-{index:04d}-{slug}.json")

    def _save_trace(self, policy: SchedulePolicy, path: Optional[str]) -> Optional[str]:
        if path is None:
            return None
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        return policy.save_trace(
            path,
            meta={"scenario": self.scenario, "event_budget": self.event_budget},
        )

    # ---- classification ----------------------------------------------------
    def classify(self, policy: SchedulePolicy, index: int = 0) -> InterleavingResult:
        """Run one interleaving under ``policy`` and classify it.

        On failure the decision trace is saved (when a ``trace_dir`` is
        configured) and its path lands on the result *and* inside any
        :class:`~repro.errors.DeadlockError` raised mid-run — the
        trace path is pre-assigned before execution for exactly that.
        """
        base = self.baseline()
        trace_path = self._trace_file(policy, index)
        if trace_path is not None:
            # Pre-assign so an in-flight DeadlockError can name the
            # file its decisions will be saved to.
            policy.trace_path = trace_path

        classification, outcome, detail = self._run_classified(policy, base)
        result = InterleavingResult(
            index=index,
            policy=policy.name,
            classification=classification,
            decisions=len(policy.decisions),
            outcome=outcome,
            detail=detail,
        )
        if not result.ok or self.keep_all:
            result.trace_path = self._save_trace(policy, trace_path)
        elif trace_path is not None:
            policy.trace_path = None  # nothing written; drop the stale path
        return result

    def _run_classified(
        self, policy: SchedulePolicy, base: _Baseline
    ) -> tuple[str, Optional[str], str]:
        destructive = _destructive(self.fault_plan)
        try:
            result = self._execute(policy)
        except DeadlockError as err:
            return "deadlock", None, str(err)
        except LivelockError as err:
            return "livelock", None, str(err)
        except ConfigurationError as err:
            if isinstance(policy, ReplayPolicy):
                return "replay-divergence", None, str(err)
            return "unexpected-error", None, f"{type(err).__name__}: {err}"
        except RankFailedError as err:
            if destructive:
                # The abort lattice floor: a declared outcome, the
                # run terminated with a typed error naming the rank.
                return "aborted", "aborted", f"{type(err).__name__}: {err}"
            return "unexpected-error", None, f"{type(err).__name__}: {err}"
        except ReproError as err:
            return "unexpected-error", None, f"{type(err).__name__}: {err}"

        outcome = result.timeline.meta["outcome"]
        if outcome not in DECLARED_OUTCOMES:  # pragma: no cover - safety net
            return "unexpected-error", outcome, f"undeclared outcome {outcome!r}"
        if outcome == "degraded":
            # Partial-but-valid: pixels must match the survivor
            # composite (allclose — the degraded reference composites
            # in float space).
            ref = result.reference_image()
            if not np.allclose(_pixels(result.final_image), _pixels(ref), atol=1e-5):
                return "wrong-pixels", outcome, "degraded image != survivor composite"
            return "degraded", outcome, ""
        # Clean or losslessly recovered: full bit-identity against the
        # fault-free reference.
        pixels = _pixels(result.final_image)
        if not np.array_equal(pixels, base.pixels):
            delta = float(np.max(np.abs(pixels - base.pixels)))
            return "wrong-pixels", outcome, f"max pixel delta {delta:g}"
        if outcome == "clean" and not (destructive and base.outcome != "clean"):
            counters = _int_counters(result.timeline)
            if counters != base.counters:
                return "counter-mismatch", outcome, _counter_diff(base.counters, counters)
        return ("identical" if outcome == "clean" else outcome), outcome, ""

    # ---- drivers -----------------------------------------------------------
    def run(self, spec: str, interleavings: int, *, seed: int = 0) -> ExploreReport:
        """Classify interleaving ``i`` under ``make_policy(spec, seed=seed,
        index=i)`` for ``i < interleavings``; ``dfs`` enumerates instead
        (:meth:`_run_dfs`)."""
        if isinstance(make_policy(spec), ForcedPrefixPolicy):  # also rejects a bad spec
            return self._run_dfs(interleavings)
        report = ExploreReport(scenario=self.scenario)
        for i in range(int(interleavings)):
            policy = make_policy(spec, seed=seed, index=i)
            report.results.append(self.classify(policy, index=i))
        return report

    def _run_dfs(self, interleavings: int) -> ExploreReport:
        """Bounded systematic enumeration of decision prefixes.

        Depth-first over the decision tree: run the default order, then
        for each recorded decision with unexplored siblings push a
        forced prefix ``decisions[:d] + [alt]`` and recurse.  A visited
        set over ``(depth, state-digest, alt)`` prunes re-derivations of
        the same decision-point state reached along different prefixes;
        ``interleavings`` bounds the total number of runs.
        """
        report = ExploreReport(scenario=self.scenario)
        seen: set[tuple] = set()
        # Each frontier entry is a forced choice prefix (tuple of ints).
        frontier: list[tuple[int, ...]] = [()]
        index = 0
        while frontier and index < int(interleavings):
            prefix = frontier.pop()
            policy = ForcedPrefixPolicy(prefix)
            report.results.append(self.classify(policy, index=index))
            index += 1
            # Expand siblings of every decision at or past the forced
            # prefix, deepest first so the pop order is depth-first.
            for depth in range(len(policy.decisions) - 1, len(prefix) - 1, -1):
                rec = policy.decisions[depth]
                taken = int(rec["choice"])
                state = rec.get("state", (rec.get("rank"), rec.get("rule")))
                for alt in range(int(rec["n"])):
                    if alt == taken:
                        continue
                    key = (depth, state, alt)
                    if key in seen:
                        continue
                    seen.add(key)
                    forced = tuple(
                        int(d["choice"]) for d in policy.decisions[:depth]
                    ) + (alt,)
                    frontier.append(forced)
        return report

    # ---- replay ------------------------------------------------------------
    def replay(self, trace_path: str) -> InterleavingResult:
        """Re-run the exact interleaving a saved trace records."""
        return self.classify(ReplayPolicy(load_trace(trace_path)), index=0)

    @classmethod
    def from_trace(
        cls, trace_path: str, *, trace_dir: Optional[str] = None, **kwargs
    ) -> "Explorer":
        """Build an explorer for the scenario a saved trace embeds."""
        from ..pipeline.config import RunConfig

        meta = load_trace(trace_path).get("meta", {})
        scenario = meta.get("scenario") or {}
        if "config" not in scenario:
            raise ConfigurationError(
                f"trace {trace_path!r} carries no scenario metadata; "
                "pass the scenario explicitly"
            )
        plan = scenario.get("fault_plan")
        explorer = cls(
            RunConfig(**scenario["config"]),
            FaultPlan.from_dict(plan) if plan else None,
            trace_dir=trace_dir,
            **kwargs,
        )
        budget = meta.get("event_budget")
        if budget:
            explorer.event_budget = int(budget)
        return explorer


def _counter_diff(expected: list[tuple], got: list[tuple]) -> str:
    """First differing integer-counter row, for failure messages."""
    for exp, act in zip(expected, got):
        if exp != act:
            return f"rank {exp[0]} stage {exp[1]}: expected {exp[2:]}, got {act[2:]}"
    return f"counter row count {len(expected)} != {len(got)}"
