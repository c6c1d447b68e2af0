"""Metrics, analytic cost models, table/figure rendering."""

from .metrics import MethodMeasurement, check_mmax_ordering, measure, speedup
from .models import (
    Prediction,
    StageObservation,
    predict_bs,
    predict_bsbr,
    predict_bsbrc,
    predict_bslc,
)
from .plots import ascii_line_plot, series_summary
from .sparsity import (
    SubimageSparsity,
    measure_sparsity,
    sparsity_table,
    wire_cost_estimates,
)
from .tables import format_generic, format_mmax_table, format_paper_table
from .timeline import Interval, ascii_gantt, intervals_from_stats, trace_to_json

__all__ = [
    "Interval",
    "MethodMeasurement",
    "Prediction",
    "StageObservation",
    "SubimageSparsity",
    "ascii_gantt",
    "ascii_line_plot",
    "check_mmax_ordering",
    "format_generic",
    "intervals_from_stats",
    "format_mmax_table",
    "format_paper_table",
    "measure",
    "measure_sparsity",
    "predict_bs",
    "predict_bsbr",
    "predict_bsbrc",
    "predict_bslc",
    "series_summary",
    "sparsity_table",
    "speedup",
    "trace_to_json",
    "wire_cost_estimates",
]
