"""Per-stage breakdown of one compositing run (the §3 view of the data).

The paper's equations are all per-stage sums: BS moves ``A/2^k`` pixels
at stage ``k``, BSBR the stage's receiving-rectangle pixels, BSLC/BSBRC
the stage's run codes and non-blank pixels.  This experiment runs one
(dataset, method, P) configuration and tabulates exactly those per-stage
quantities — averaged and maxed over ranks — so the equations can be
read directly off the simulated execution.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.tables import format_generic
from ..cluster.model import SP2, MachineModel
from ..cluster.hypercube import log2_int
from .harness import run_method, workload

__all__ = ["StageBreakdown", "run_stage_breakdown", "format_stage_breakdown"]


@dataclass(frozen=True)
class StageBreakdown:
    """Aggregates of one compositing stage across ranks."""

    stage: int
    mean_bytes_recv: float
    max_bytes_recv: int
    mean_comp_ms: float
    mean_comm_ms: float
    mean_over_pixels: float
    mean_encode_pixels: float
    mean_a_rec: float
    mean_a_opaque: float
    empty_recv_rects: int


def run_stage_breakdown(
    *,
    dataset: str = "engine_high",
    method: str = "bsbrc",
    num_ranks: int = 16,
    image_size: int = 384,
    machine: MachineModel = SP2,
    volume_shape=None,
    max_ranks: int | None = None,
    method_options: dict | None = None,
) -> list[StageBreakdown]:
    """Run one configuration and reduce its stats per stage."""
    work = workload(
        dataset,
        image_size,
        max_ranks=max_ranks if max_ranks is not None else max(num_ranks, 8),
        volume_shape=volume_shape,
    )
    _, run = run_method(
        work, method, num_ranks, machine=machine, **(method_options or {})
    )
    # Report the stages the method actually ran: grouped schedules
    # (e.g. radix-k 4,2) finish in fewer rounds than log2 P.
    observed = {
        idx
        for rank_stats in run.stats.rank_stats
        for idx in rank_stats.stages
        if 0 <= idx < log2_int(num_ranks)
    }
    out: list[StageBreakdown] = []
    for stage in sorted(observed):
        buckets = [
            rank_stats.stages.get(stage) for rank_stats in run.stats.rank_stats
        ]
        buckets = [bucket for bucket in buckets if bucket is not None]
        count = max(1, len(buckets))
        out.append(
            StageBreakdown(
                stage=stage,
                mean_bytes_recv=sum(b.bytes_recv for b in buckets) / count,
                max_bytes_recv=max((b.bytes_recv for b in buckets), default=0),
                mean_comp_ms=sum(b.comp_time for b in buckets) / count * 1e3,
                mean_comm_ms=sum(b.comm_time for b in buckets) / count * 1e3,
                mean_over_pixels=sum(
                    b.counters.get("over", 0) for b in buckets
                ) / count,
                mean_encode_pixels=sum(
                    b.counters.get("encode", 0) for b in buckets
                ) / count,
                mean_a_rec=sum(b.counters.get("a_rec", 0) for b in buckets) / count,
                mean_a_opaque=sum(
                    b.counters.get("a_opaque", 0) for b in buckets
                ) / count,
                empty_recv_rects=sum(
                    b.counters.get("empty_recv_rect", 0) for b in buckets
                ),
            )
        )
    return out


def format_stage_breakdown(
    breakdown: list[StageBreakdown], *, title: str = ""
) -> str:
    rows = [
        (
            b.stage,
            f"{b.mean_bytes_recv:.0f}",
            b.max_bytes_recv,
            f"{b.mean_comp_ms:.3f}",
            f"{b.mean_comm_ms:.3f}",
            f"{b.mean_over_pixels:.0f}",
            f"{b.mean_encode_pixels:.0f}",
            f"{b.mean_a_rec:.0f}",
            f"{b.mean_a_opaque:.0f}",
            b.empty_recv_rects,
        )
        for b in breakdown
    ]
    table = format_generic(
        [
            "stage",
            "recv B (mean)",
            "recv B (max)",
            "comp ms",
            "comm ms",
            "over px",
            "encode px",
            "a_rec",
            "a_opaque",
            "empty rects",
        ],
        rows,
    )
    return (title + "\n" + table) if title else table
