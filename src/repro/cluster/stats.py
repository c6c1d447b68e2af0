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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

__all__ = ["StageStats", "RankStats", "RunResult", "PRE_STAGE"]

#: Pseudo-stage index for work performed before the first compositing stage.
PRE_STAGE = -1


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
    """Outcome of one simulated SPMD run.

    ``returns[r]`` is whatever rank ``r``'s coroutine returned;
    ``rank_stats[r]`` its accounting; ``makespan`` the largest final
    virtual clock (wall time of the parallel phase).
    """

    num_ranks: int
    returns: list[Any]
    rank_stats: list[RankStats]
    makespan: float

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


def merge_counters(stats: Iterable[StageStats]) -> dict[str, int]:
    """Union of named counters across stage buckets (sum per key)."""
    out: dict[str, int] = {}
    for st in stats:
        for key, val in st.counters.items():
            out[key] = out.get(key, 0) + val
    return out
