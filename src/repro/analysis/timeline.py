"""Execution-timeline tooling for the simulated cluster.

Turns a simulated run's stats into a per-rank **ASCII Gantt chart**
showing when each rank computed, transferred, and waited (great for
*seeing* the load imbalance the BSLC interleaving removes).  The raw
event trace is the ``trace`` list of a ``repro.run-timeline/1``
document (:class:`~repro.cluster.run_timeline.RunTimeline`).

Time is bucketed into fixed columns; within a bucket, compute wins over
transfer wins over wait for display purposes.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cluster.stats import RunResult

__all__ = ["Interval", "intervals_from_stats", "ascii_gantt"]

_GLYPH = {"compute": "#", "comm": "=", "wait": "."}


@dataclass(frozen=True)
class Interval:
    """One activity span of one rank."""

    rank: int
    kind: str  # "compute" | "comm" | "wait"
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


def intervals_from_stats(result: RunResult) -> list[Interval]:
    """Reconstruct per-rank activity intervals from stage stats.

    Stages are replayed in stage order; within a stage the model is
    compute → wait → transfer (how the swap methods actually behave:
    local work, then the rendezvous, then the wire).  This gives an
    accurate picture without requiring a full event trace.
    """
    intervals: list[Interval] = []
    for rank_stats in result.rank_stats:
        clock = 0.0
        for stage in rank_stats.sorted_stages():
            for kind, duration in (
                ("compute", stage.comp_time),
                ("wait", stage.wait_time),
                ("comm", stage.comm_time),
            ):
                if duration > 0:
                    intervals.append(
                        Interval(rank=rank_stats.rank, kind=kind, start=clock,
                                 end=clock + duration)
                    )
                    clock += duration
    return intervals


def ascii_gantt(
    result: RunResult,
    *,
    width: int = 72,
    title: str = "",
) -> str:
    """Render a per-rank activity chart from a run's stats.

    ``#`` compute · ``=`` transfer · ``.`` waiting for a partner.
    """
    intervals = intervals_from_stats(result)
    span = max((iv.end for iv in intervals), default=0.0)
    if span <= 0.0:
        return (title + "\n" if title else "") + "(no recorded activity)"

    rows: dict[int, list[str]] = {
        rank: [" "] * width for rank in range(result.num_ranks)
    }
    for iv in intervals:
        col0 = int(iv.start / span * (width - 1))
        col1 = max(col0, int(iv.end / span * (width - 1)))
        glyph = _GLYPH[iv.kind]
        row = rows[iv.rank]
        for col in range(col0, col1 + 1):
            # Precedence: compute > comm > wait > blank.
            current = row[col]
            if current == "#":
                continue
            if current == "=" and glyph == ".":
                continue
            row[col] = glyph

    out: list[str] = []
    if title:
        out.append(title)
    out.append(f"0 {'-' * (width - 10)} {span * 1e3:.2f} ms")
    for rank in range(result.num_ranks):
        out.append(f"r{rank:02d} |{''.join(rows[rank])}|")
    out.append("legend: # compute   = transfer   . waiting")
    return "\n".join(out)

