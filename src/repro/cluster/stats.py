"""Per-rank, per-stage accounting of the simulated execution.

The paper evaluates each compositing method by

* ``T_comp`` — accumulated local computation time,
* ``T_comm`` — accumulated pure communication time (start-up plus
  transfer, the paper's eqs. (2)/(4)/(6)/(8) terms); time spent waiting
  for a late partner is tracked separately as ``wait_time``, and
* ``M_max`` — the maximum over ranks of total received message bytes
  (paper §4: ``M_max = MAX_i Σ_k R_i^k``).

Stats are bucketed by *stage* so that per-stage quantities from the
analytic model (eqs. (1)-(8)) can be cross-checked against the simulated
execution.  Stage ``-1`` collects work done outside any declared stage
(e.g. the initial bounding-rectangle scan, which the paper charges as
``T_bound`` before the first compositing stage).

A :class:`RunResult` is the one record of a run on every substrate —
the simulator and the real transports fill the same fields — and it
exports as the ``repro.run-timeline/1`` JSON document.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Optional

from ..errors import ConfigurationError

__all__ = [
    "StageStats",
    "RankStats",
    "RunResult",
    "TraceEvent",
    "PRE_STAGE",
    "TIMELINE_SCHEMA",
]

#: Pseudo-stage index for work performed before the first compositing stage.
PRE_STAGE = -1

#: Schema tag of the document :meth:`RunResult.to_dict` exports.
TIMELINE_SCHEMA = "repro.run-timeline/1"


@dataclass
class TraceEvent:
    """One entry of the simulator's optional execution trace."""

    time: float
    rank: int
    kind: str
    detail: str


@dataclass
class StageStats:
    """Accumulated quantities for one rank during one compositing stage."""

    stage: int
    comp_time: float = 0.0
    comm_time: float = 0.0
    #: Time spent blocked waiting for a partner to arrive at a matching
    #: call (synchronization skew).  Kept separate from ``comm_time`` so
    #: tables report the paper's pure-transfer communication term
    #: (eqs. (2)/(4)/(6)/(8) have no wait component); the makespan still
    #: includes it.
    wait_time: float = 0.0
    bytes_sent: int = 0
    bytes_recv: int = 0
    msgs_sent: int = 0
    msgs_recv: int = 0
    #: Named operation counters, e.g. ``{"over": pixels, "encode": pixels}``.
    counters: dict[str, int] = field(default_factory=dict)

    def add_counter(self, kind: str, count: int) -> None:
        if count:
            self.counters[kind] = self.counters.get(kind, 0) + int(count)

    @property
    def total_time(self) -> float:
        return self.comp_time + self.comm_time

    @property
    def elapsed_time(self) -> float:
        """Busy plus blocked time (includes partner-wait skew)."""
        return self.comp_time + self.comm_time + self.wait_time


@dataclass
class RankStats:
    """All stage buckets of one rank plus rank-level reductions."""

    rank: int
    stages: dict[int, StageStats] = field(default_factory=dict)
    #: Structured fault events (injected/detected) recorded on this
    #: rank; the fault injector sinks here so events travel with the
    #: stats through every backend (pickled across processes on mp).
    events: list[dict[str, Any]] = field(default_factory=list)

    def stage(self, index: int) -> StageStats:
        """Return (creating if needed) the bucket for ``index``."""
        bucket = self.stages.get(index)
        if bucket is None:
            bucket = StageStats(stage=index)
            self.stages[index] = bucket
        return bucket

    # ---- reductions -------------------------------------------------------
    @property
    def comp_time(self) -> float:
        return sum(s.comp_time for s in self.stages.values())

    @property
    def comm_time(self) -> float:
        return sum(s.comm_time for s in self.stages.values())

    @property
    def wait_time(self) -> float:
        return sum(s.wait_time for s in self.stages.values())

    @property
    def total_time(self) -> float:
        return self.comp_time + self.comm_time

    @property
    def elapsed_time(self) -> float:
        return self.comp_time + self.comm_time + self.wait_time

    @property
    def bytes_sent(self) -> int:
        return sum(s.bytes_sent for s in self.stages.values())

    @property
    def bytes_recv(self) -> int:
        """Paper's ``m_i = Σ_k R_i^k`` for this rank."""
        return sum(s.bytes_recv for s in self.stages.values())

    @property
    def msgs_sent(self) -> int:
        return sum(s.msgs_sent for s in self.stages.values())

    @property
    def msgs_recv(self) -> int:
        return sum(s.msgs_recv for s in self.stages.values())

    def counter_total(self, kind: str) -> int:
        return sum(s.counters.get(kind, 0) for s in self.stages.values())

    def sorted_stages(self) -> list[StageStats]:
        return [self.stages[k] for k in sorted(self.stages)]


@dataclass
class RunResult:
    """The record of one run, simulated or real.

    ``returns[r]`` is whatever rank ``r``'s program returned;
    ``rank_stats[r]`` its accounting; ``makespan`` the largest final
    virtual clock (``clock == "modelled"``) or the largest per-rank wall
    time (``clock == "wall"``).

    :meth:`to_dict` exports the record as the ``repro.run-timeline/1``
    document (``returns`` stays behind)::

        schema       "repro.run-timeline/1"
        backend      "sim" | "mp"
        clock        "modelled" (simulator) | "wall" (real transports)
        num_ranks    int
        makespan     float
        meta         {free-form run description: dataset, method, ...}
        events       [{event: "injected"|"detected"|"recovery"|"degraded"|
                       "checkpoint"|"tile_complete", ...}]
        ranks        [{rank, wall_time, perf, stages: [{stage, comp_time,
                       comm_time, wait_time, bytes_sent, bytes_recv,
                       msgs_sent, msgs_recv, counters}]}]
        trace        [{time, rank, kind, detail}] — simulator only, optional

    ``wall_time``/``perf`` are zero/empty on the simulator; ``trace`` is
    empty on real transports.  The stage buckets carry identical meaning
    on all substrates (and identical byte counts — that is tested).
    ``events`` is the run's structured audit trail: each rank's
    :attr:`RankStats.events` (injected and detected faults, checkpoint
    saves and restores, tile-routed ``tile_complete`` latencies) in rank
    order, then the orchestrator's detection and recovery entries.  A
    pipeline run's ``meta["outcome"]`` is one of
    :data:`~repro.cluster.recovery.DECLARED_OUTCOMES`, and
    ``meta["degraded"]`` marks a partial-but-valid image.
    """

    num_ranks: int
    returns: list[Any]
    rank_stats: list[RankStats]
    makespan: float
    #: Backend short name: "sim" | "mp".
    backend: str = "sim"
    #: What ``makespan`` measures: "modelled" virtual seconds or "wall".
    clock: str = "modelled"
    #: Simulator trace (empty unless the run was traced).
    trace_events: list[TraceEvent] = field(default_factory=list)
    #: Per-rank wall seconds (zeros on the simulator).
    wall_times: list[float] = field(default_factory=list)
    #: Per-rank :func:`repro.perf.report` snapshots (empty on the simulator).
    rank_perf: list[dict] = field(default_factory=list)
    #: Run description the pipeline stamps (dataset, method, outcome, ...).
    meta: dict[str, Any] = field(default_factory=dict)
    #: The structured audit trail (see the class docstring).
    events: list[dict[str, Any]] = field(default_factory=list)

    def without_stage(self, stage: int) -> "RunResult":
        """This record with one stage bucket dropped from every rank
        (the remaining buckets are shared) and the makespan recomputed.

        The pipeline's compositing view drops the gather stage.  On the
        simulator the recomputed makespan is exact: rendering charges no
        virtual time, and a rank's clock equals its accumulated ``comp +
        comm + wait``, so the max remaining ``elapsed_time`` equals the
        makespan of a compositing-only run.
        """
        stats = [
            RankStats(
                rank=rs.rank,
                stages={k: b for k, b in rs.stages.items() if k != stage},
                events=list(rs.events),
            )
            for rs in self.rank_stats
        ]
        return replace(
            self,
            rank_stats=stats,
            makespan=max((rs.elapsed_time for rs in stats), default=0.0),
            meta=dict(self.meta),
            events=list(self.events),
        )

    # ---- paper-level reductions -------------------------------------------
    @property
    def mmax_bytes(self) -> int:
        """Paper §4: maximum over ranks of total received bytes."""
        return max((rs.bytes_recv for rs in self.rank_stats), default=0)

    @property
    def critical_rank(self) -> int:
        """Rank with the largest ``T_comp + T_comm`` (the reported row)."""
        return max(range(self.num_ranks), key=lambda r: self.rank_stats[r].total_time)

    @property
    def t_comp(self) -> float:
        """``T_comp`` of the critical rank (keeps table columns additive)."""
        return self.rank_stats[self.critical_rank].comp_time

    @property
    def t_comm(self) -> float:
        """``T_comm`` of the critical rank."""
        return self.rank_stats[self.critical_rank].comm_time

    @property
    def t_total(self) -> float:
        return self.rank_stats[self.critical_rank].total_time

    @property
    def t_comp_max(self) -> float:
        return max((rs.comp_time for rs in self.rank_stats), default=0.0)

    @property
    def t_comm_max(self) -> float:
        return max((rs.comm_time for rs in self.rank_stats), default=0.0)

    @property
    def t_wait(self) -> float:
        """Synchronization-skew time of the critical rank."""
        return self.rank_stats[self.critical_rank].wait_time

    @property
    def t_wait_max(self) -> float:
        return max((rs.wait_time for rs in self.rank_stats), default=0.0)

    def counter_total(self, kind: str) -> int:
        return sum(rs.counter_total(kind) for rs in self.rank_stats)


    # ---- the repro.run-timeline/1 document ---------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": TIMELINE_SCHEMA,
            "backend": self.backend,
            "clock": self.clock,
            "num_ranks": self.num_ranks,
            "makespan": self.makespan,
            "meta": self.meta,
            "events": [dict(ev) for ev in self.events],
            "ranks": [
                {
                    "rank": rs.rank,
                    "wall_time": self.wall_times[i] if i < len(self.wall_times) else 0.0,
                    "perf": self.rank_perf[i] if i < len(self.rank_perf) else {},
                    "stages": [_stage_to_dict(st) for st in rs.sorted_stages()],
                }
                for i, rs in enumerate(self.rank_stats)
            ],
            "trace": [
                {"time": ev.time, "rank": ev.rank, "kind": ev.kind, "detail": ev.detail}
                for ev in self.trace_events
            ],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RunResult":
        schema = data.get("schema")
        if schema != TIMELINE_SCHEMA:
            raise ConfigurationError(
                f"unsupported timeline schema {schema!r} (expected {TIMELINE_SCHEMA!r})"
            )
        ranks = data.get("ranks", [])
        rank_stats = []
        for entry in ranks:
            rs = RankStats(rank=int(entry["rank"]))
            for st_data in entry.get("stages", []):
                st = _stage_from_dict(st_data)
                rs.stages[st.stage] = st
            rank_stats.append(rs)
        return cls(
            num_ranks=int(data["num_ranks"]),
            returns=[],
            rank_stats=rank_stats,
            makespan=float(data["makespan"]),
            backend=str(data["backend"]),
            clock=str(data["clock"]),
            trace_events=[
                TraceEvent(
                    time=float(ev["time"]),
                    rank=int(ev["rank"]),
                    kind=str(ev["kind"]),
                    detail=str(ev.get("detail", "")),
                )
                for ev in data.get("trace", [])
            ],
            wall_times=[float(entry.get("wall_time", 0.0)) for entry in ranks],
            rank_perf=[dict(entry.get("perf", {})) for entry in ranks],
            meta=dict(data.get("meta", {})),
            events=[dict(ev) for ev in data.get("events", [])],
        )

    def to_json(self, *, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    @classmethod
    def from_json(cls, text: str) -> "RunResult":
        return cls.from_dict(json.loads(text))

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "RunResult":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())


def _stage_to_dict(st: StageStats) -> dict[str, Any]:
    return {
        "stage": st.stage,
        "comp_time": st.comp_time,
        "comm_time": st.comm_time,
        "wait_time": st.wait_time,
        "bytes_sent": st.bytes_sent,
        "bytes_recv": st.bytes_recv,
        "msgs_sent": st.msgs_sent,
        "msgs_recv": st.msgs_recv,
        "counters": dict(st.counters),
    }


def _stage_from_dict(data: dict[str, Any]) -> StageStats:
    return StageStats(
        stage=int(data["stage"]),
        comp_time=float(data.get("comp_time", 0.0)),
        comm_time=float(data.get("comm_time", 0.0)),
        wait_time=float(data.get("wait_time", 0.0)),
        bytes_sent=int(data.get("bytes_sent", 0)),
        bytes_recv=int(data.get("bytes_recv", 0)),
        msgs_sent=int(data.get("msgs_sent", 0)),
        msgs_recv=int(data.get("msgs_recv", 0)),
        counters={str(k): int(v) for k, v in data.get("counters", {}).items()},
    )


def merge_counters(stats: Iterable[StageStats]) -> dict[str, int]:
    """Union of named counters across stage buckets (sum per key)."""
    out: dict[str, int] = {}
    for st in stats:
        for key, val in st.counters.items():
            out[key] = out.get(key, 0) + val
    return out
