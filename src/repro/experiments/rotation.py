"""Experiment R1 — §3.2's empty-bounding-rectangle vs viewpoint analysis.

The paper argues that the number of *non-empty* receiving bounding
rectangles a BSBR rank sees across the ``log P`` stages depends on the
viewpoint: about ``log ∛P`` for a normal orthogonal projection, up to
``log ∛(P²)`` when rotating about one axis, and up to ``log P`` when
rotating about two axes.  This experiment counts empty/non-empty
receiving rectangles per rank under the three viewpoint classes and
reports the maxima for comparison with those bounds.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.tables import format_generic
from ..cluster.model import SP2, MachineModel
from ..cluster.hypercube import log2_int
from .harness import run_method, workload

__all__ = ["RotationObservation", "run_rotation", "format_rotation"]

#: The three viewpoint classes of §3.2.
VIEWPOINTS = {
    "normal": (0.0, 0.0, 0.0),
    "one-axis": (0.0, 35.0, 0.0),
    "two-axis": (25.0, 35.0, 0.0),
}


@dataclass
class RotationObservation:
    dataset: str
    viewpoint: str
    num_ranks: int
    stages: int
    max_nonempty_recv: int
    mean_nonempty_recv: float
    empty_recv_total: int

    @property
    def paper_bound(self) -> float:
        """The §3.2 upper bound for this viewpoint class (stages)."""
        import math

        p = float(self.num_ranks)
        if self.viewpoint == "normal":
            return math.log2(p ** (1.0 / 3.0))
        if self.viewpoint == "one-axis":
            return math.log2(p ** (2.0 / 3.0))
        return math.log2(p)


def run_rotation(
    *,
    dataset: str = "engine_low",
    rank_counts=(8, 64),
    image_size: int = 384,
    machine: MachineModel = SP2,
    volume_shape=None,
) -> list[RotationObservation]:
    """Count non-empty receiving rects for BSBR under each viewpoint."""
    observations: list[RotationObservation] = []
    for viewpoint, rotation in VIEWPOINTS.items():
        for num_ranks in rank_counts:
            work = workload(
                dataset,
                image_size,
                max_ranks=max(rank_counts),
                rotation=rotation,
                volume_shape=volume_shape,
            )
            _, run = run_method(work, "bsbr", num_ranks, machine=machine)
            stages = log2_int(num_ranks)
            nonempty_counts = []
            empty_total = 0
            for rank_stats in run.stats.rank_stats:
                empty = rank_stats.counter_total("empty_recv_rect")
                empty_total += empty
                nonempty_counts.append(stages - empty)
            observations.append(
                RotationObservation(
                    dataset=dataset,
                    viewpoint=viewpoint,
                    num_ranks=num_ranks,
                    stages=stages,
                    max_nonempty_recv=max(nonempty_counts),
                    mean_nonempty_recv=sum(nonempty_counts) / len(nonempty_counts),
                    empty_recv_total=empty_total,
                )
            )
    return observations


def format_rotation(observations: list[RotationObservation]) -> str:
    rows = [
        (
            o.dataset,
            o.viewpoint,
            o.num_ranks,
            o.stages,
            o.max_nonempty_recv,
            f"{o.mean_nonempty_recv:.2f}",
            f"{o.paper_bound:.2f}",
            o.empty_recv_total,
        )
        for o in observations
    ]
    return (
        "Section 3.2 analysis: non-empty receiving bounding rectangles (BSBR)\n"
        + format_generic(
            [
                "dataset",
                "viewpoint",
                "P",
                "stages",
                "max nonempty",
                "mean nonempty",
                "paper bound",
                "total empty",
            ],
            rows,
        )
    )
