"""Experiment harness regenerating every table and figure of the paper."""

from .compare import FidelityReport, compare_to_paper, format_fidelity
from .figures import FIGURE_DATASETS, format_figure, render_figure7, run_figures
from .harness import (
    DEFAULT_ROTATION,
    RenderedWorkload,
    clear_workload_cache,
    load_rows,
    rows_from_json,
    rows_to_json,
    run_grid,
    run_method,
    save_rows,
    workload,
)
from .mmax import MmaxReport, format_mmax, run_mmax
from .paper_data import PAPER_TABLE1, PAPER_TABLE2, PaperCell, paper_cell
from .rotation import RotationObservation, format_rotation, run_rotation
from .stages import StageBreakdown, format_stage_breakdown, run_stage_breakdown
from .tables import format_table1, format_table2, run_table1, run_table2

__all__ = [
    "DEFAULT_ROTATION",
    "FIGURE_DATASETS",
    "FidelityReport",
    "MmaxReport",
    "PAPER_TABLE1",
    "PAPER_TABLE2",
    "PaperCell",
    "RenderedWorkload",
    "RotationObservation",
    "StageBreakdown",
    "clear_workload_cache",
    "compare_to_paper",
    "format_fidelity",
    "format_figure",
    "format_mmax",
    "format_rotation",
    "format_stage_breakdown",
    "format_table1",
    "format_table2",
    "load_rows",
    "paper_cell",
    "render_figure7",
    "rows_from_json",
    "rows_to_json",
    "run_figures",
    "run_grid",
    "run_method",
    "run_mmax",
    "run_rotation",
    "run_stage_breakdown",
    "run_table1",
    "run_table2",
    "save_rows",
    "workload",
]
