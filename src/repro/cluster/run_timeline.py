"""One exportable timeline schema for every execution substrate.

A run — simulated or real — produces three kinds of evidence that used
to live in three unrelated shapes: the simulator's
:class:`~repro.cluster.simulator.TraceEvent` list, the per-rank
per-stage :class:`~repro.cluster.stats.RankStats`, and the wall-clock
counters/timers of :mod:`repro.perf`.  :class:`RunTimeline` folds all
three into a single JSON document (schema ``repro.run-timeline/1``)
that ``experiments/`` and the CLI consume identically regardless of the
backend that produced it.

Schema (top-level keys of the JSON object)::

    schema       "repro.run-timeline/1"
    backend      "sim" | "mp"
    clock        "modelled" (simulator) | "wall" (real transports)
    num_ranks    int
    makespan     float — virtual seconds (sim) or max rank wall (real)
    meta         {free-form run description: dataset, method, ...}
    events       [{event: "injected"|"detected"|"degraded", ...}] —
                 structured fault events (empty on clean runs)
    ranks        [{rank, wall_time, perf, stages: [{stage, comp_time,
                   comm_time, wait_time, bytes_sent, bytes_recv,
                   msgs_sent, msgs_recv, counters}]}]
    trace        [{time, rank, kind, detail}] — simulator only, optional

``wall_time``/``perf`` are zero/empty on the simulator; ``trace`` is
empty on real transports.  The stage buckets carry identical meaning on
all substrates (and identical byte counts — that is tested).  ``events``
collects the per-rank fault records
(:attr:`~repro.cluster.stats.RankStats.events`) plus any orchestrator
events (failure detection, degradation) — the audit trail a chaos run
leaves behind; ``meta["degraded"]`` marks a partial-but-valid image.

Schedule-exploration meta keys
------------------------------
Timelines produced by :class:`~repro.pipeline.system.SortLastSystem`
always carry ``meta["outcome"]`` — one of
:data:`~repro.cluster.recovery.DECLARED_OUTCOMES` (``"clean"``,
``"resumed"``, ``"degraded"``; ``"aborted"`` runs raise instead of
returning a timeline).  When the run was driven by a
:class:`~repro.cluster.schedule_policy.SchedulePolicy` (the explorer's
ordering hook — the base class is the deterministic order, so its runs
carry ``"deterministic"`` and zero decisions), :func:`schedule_meta`
adds:

* ``meta["schedule_policy"]`` — the policy name (``"random:17"``,
  ``"adversarial:lifo"``, ...);
* ``meta["schedule_decisions"]`` — how many recorded decisions the
  whole run took (accumulated across recovery re-runs);
* ``meta["schedule_trace"]`` — path of the saved
  ``repro.sched-trace/1`` decision trace, when one was written.  This
  mirrors the trace reference embedded in
  :class:`~repro.errors.DeadlockError`, so a timeline alone is enough
  to find the replayable schedule that produced it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

from ..errors import ConfigurationError
from .simulator import TraceEvent
from .stats import RankStats, StageStats

__all__ = [
    "RunTimeline",
    "TIMELINE_SCHEMA",
    "progress_meta",
    "schedule_meta",
    "tile_latency_metrics",
]

TIMELINE_SCHEMA = "repro.run-timeline/1"


def progress_meta(feed) -> dict[str, Any]:
    """Timeline ``meta`` entries describing a run's live progress feed.

    ``{}`` when no feed was installed (``feed`` is ``None``); otherwise
    the total event count, a per-kind breakdown, and the feed's final
    monotone coverage — enough for post-hoc analysis of the streamed
    delivery without persisting the pixel payloads themselves (the
    serving layer owns that, as ``repro.serve-event/4`` documents).
    """
    if feed is None:
        return {}
    kinds: dict[str, int] = {}
    for event in feed.events:
        kinds[event.kind] = kinds.get(event.kind, 0) + 1
    return {
        "progress_events": len(feed.events),
        "progress_kinds": kinds,
        "progress_coverage": feed.coverage,
    }


def schedule_meta(policy) -> dict[str, Any]:
    """Timeline ``meta`` entries describing the schedule policy of a run.

    ``{}`` when ``policy`` is ``None`` (the default engine ordering);
    otherwise the policy name and decision count, plus the saved
    ``repro.sched-trace/1`` path when the policy has one — see the
    module docstring for the key semantics.
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


def tile_latency_metrics(events: Iterable[dict]) -> dict[str, float]:
    """Progressive-display latencies from ``tile_complete`` events.

    The tile-routed engine appends one event per completed tile with the
    substrate time ``t`` since compositing started and the tile's pixel
    count.  Two summary latencies fall out:

    * ``latency_to_first_pixel`` — time until *any* tile of the frame is
      final (the earliest moment a progressive display has something
      correct to show);
    * ``latency_to_p50_pixels`` — time until half the completed pixels
      are final (tiles accumulated in completion order).

    Returns ``{}`` when no ``tile_complete`` events are present (every
    stage-synchronous method: their first finished pixel *is* the
    makespan, so the timeline's ``makespan`` already tells the story).
    """
    tiles = sorted(
        (
            (float(ev["t"]), int(ev["pixels"]))
            for ev in events
            if ev.get("event") == "tile_complete"
        ),
    )
    if not tiles:
        return {}
    total = sum(pixels for _, pixels in tiles)
    covered = 0
    p50 = tiles[-1][0]
    for t, pixels in tiles:
        covered += pixels
        if 2 * covered >= total:
            p50 = t
            break
    return {
        "latency_to_first_pixel": tiles[0][0],
        "latency_to_p50_pixels": p50,
    }


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


@dataclass
class RunTimeline:
    """A backend-independent record of one run, JSON round-trippable."""

    backend: str
    clock: str  # "modelled" | "wall"
    num_ranks: int
    makespan: float
    rank_stats: list[RankStats] = field(default_factory=list)
    wall_times: list[float] = field(default_factory=list)
    rank_perf: list[dict] = field(default_factory=list)
    trace_events: list[TraceEvent] = field(default_factory=list)
    meta: dict[str, Any] = field(default_factory=dict)
    #: Structured fault events: per-rank injected/detected records
    #: harvested from the stats, plus orchestrator-level entries.
    events: list[dict[str, Any]] = field(default_factory=list)

    # ---- construction ------------------------------------------------------
    @classmethod
    def from_parts(
        cls,
        *,
        backend: str,
        clock: str,
        rank_stats: Iterable[RankStats],
        makespan: float,
        wall_times: Optional[Iterable[float]] = None,
        rank_perf: Optional[Iterable[dict]] = None,
        trace_events: Optional[Iterable[TraceEvent]] = None,
        meta: Optional[dict[str, Any]] = None,
        events: Optional[Iterable[dict[str, Any]]] = None,
    ) -> "RunTimeline":
        stats = list(rank_stats)
        harvested = [dict(ev) for rs in stats for ev in rs.events]
        if events is not None:
            harvested.extend(dict(ev) for ev in events)
        return cls(
            backend=backend,
            clock=clock,
            num_ranks=len(stats),
            makespan=float(makespan),
            rank_stats=stats,
            wall_times=list(wall_times) if wall_times is not None else [0.0] * len(stats),
            rank_perf=list(rank_perf) if rank_perf is not None else [{} for _ in stats],
            trace_events=list(trace_events) if trace_events is not None else [],
            meta=dict(meta) if meta else {},
            events=harvested,
        )

    # ---- serialization -----------------------------------------------------
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
    def from_dict(cls, data: dict[str, Any]) -> "RunTimeline":
        schema = data.get("schema")
        if schema != TIMELINE_SCHEMA:
            raise ConfigurationError(
                f"unsupported timeline schema {schema!r} (expected {TIMELINE_SCHEMA!r})"
            )
        rank_stats = []
        wall_times = []
        rank_perf = []
        for entry in data.get("ranks", []):
            rs = RankStats(rank=int(entry["rank"]))
            for st_data in entry.get("stages", []):
                st = _stage_from_dict(st_data)
                rs.stages[st.stage] = st
            rank_stats.append(rs)
            wall_times.append(float(entry.get("wall_time", 0.0)))
            rank_perf.append(dict(entry.get("perf", {})))
        trace_events = [
            TraceEvent(
                time=float(ev["time"]),
                rank=int(ev["rank"]),
                kind=str(ev["kind"]),
                detail=str(ev.get("detail", "")),
            )
            for ev in data.get("trace", [])
        ]
        return cls(
            backend=str(data["backend"]),
            clock=str(data["clock"]),
            num_ranks=int(data["num_ranks"]),
            makespan=float(data["makespan"]),
            rank_stats=rank_stats,
            wall_times=wall_times,
            rank_perf=rank_perf,
            trace_events=trace_events,
            meta=dict(data.get("meta", {})),
            events=[dict(ev) for ev in data.get("events", [])],
        )

    def to_json(self, *, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    @classmethod
    def from_json(cls, text: str) -> "RunTimeline":
        return cls.from_dict(json.loads(text))

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "RunTimeline":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())
