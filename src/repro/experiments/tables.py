"""Experiments T1 and T2 — regenerate the paper's Tables 1 and 2.

Compositing time (``T_comp``, ``T_comm``, ``T_total``) on the four test
datasets for P ∈ {2, 4, 8, 16, 32, 64}: Table 1 at 384x384 pixels for
BS, BSBR, BSLC and BSBRC; Table 2 the same grid at 768x768 pixels and —
like the paper — only the three proposed methods (BSBR, BSLC, BSBRC);
plain BS was dropped from the paper's second table.
"""

from __future__ import annotations

from ..analysis.metrics import MethodMeasurement
from ..analysis.tables import format_paper_table
from ..cluster.model import SP2, MachineModel
from ..compositing.registry import PAPER_METHODS
from ..volume.datasets import PAPER_DATASETS
from .harness import run_grid

__all__ = [
    "run_table1",
    "format_table1",
    "TABLE1_RANKS",
    "TABLE1_IMAGE_SIZE",
    "run_table2",
    "format_table2",
    "TABLE2_RANKS",
    "TABLE2_IMAGE_SIZE",
    "TABLE2_METHODS",
]

TABLE1_RANKS = TABLE2_RANKS = (2, 4, 8, 16, 32, 64)
TABLE1_IMAGE_SIZE = 384
TABLE2_IMAGE_SIZE = 768
TABLE2_METHODS = ("bsbr", "bslc", "bsbrc")


def run_table1(
    *,
    machine: MachineModel = SP2,
    rank_counts=TABLE1_RANKS,
    image_size: int = TABLE1_IMAGE_SIZE,
    datasets=PAPER_DATASETS,
    methods=PAPER_METHODS,
    volume_shape=None,
    verbose: bool = False,
) -> list[MethodMeasurement]:
    """Run the Table 1 grid; pass smaller knobs for a quick variant."""
    return run_grid(
        datasets,
        image_size,
        rank_counts,
        methods,
        machine=machine,
        volume_shape=volume_shape,
        verbose=verbose,
    )


def run_table2(
    *, image_size: int = TABLE2_IMAGE_SIZE, methods=TABLE2_METHODS, **knobs
) -> list[MethodMeasurement]:
    """Run the Table 2 grid: :func:`run_table1`'s knobs, other defaults."""
    return run_table1(image_size=image_size, methods=methods, **knobs)


def _format(rows, number: int, methods, size: int, noun: str) -> str:
    datasets = list(dict.fromkeys(row.dataset for row in rows))
    size = rows[0].image_size if rows else size
    return format_paper_table(
        rows,
        methods=[m for m in methods if any(r.method == m for r in rows)],
        datasets=datasets,
        title=(
            f"Table {number} (reproduction): compositing time of the proposed "
            f"methods for the {size}x{size} test {noun}"
        ),
    )


def format_table1(rows: list[MethodMeasurement]) -> str:
    return _format(rows, 1, PAPER_METHODS, TABLE1_IMAGE_SIZE, "images")


def format_table2(rows: list[MethodMeasurement]) -> str:
    return _format(rows, 2, TABLE2_METHODS, TABLE2_IMAGE_SIZE, "samples")
