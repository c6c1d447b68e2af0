"""Shared fixtures for the benchmark harness.

Benchmarks run at **paper scale** (384x384 and 768x768 images over the
256-class volumes, P = 2..64).  Workload renders and grid results are
cached at session scope so each table/figure bench times only the work
it reproduces.  Formatted tables/figures are written to
``benchmarks/results/`` and echoed to the terminal (run with ``-s`` to
see them).
"""

from __future__ import annotations

import os

import pytest

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: The paper's processor sweep.
PAPER_RANKS = (2, 4, 8, 16, 32, 64)


def emit(name: str, text: str) -> None:
    """Print a generated artifact and persist it under results/."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    print(f"\n{text}\n[{name} written to {path}]")


@pytest.fixture(scope="session")
def table1_rows():
    """Table 1 measurements (also feeds Figures 8-11 benches)."""
    from repro.experiments.tables import run_table1

    return run_table1(rank_counts=PAPER_RANKS)


def cell(rows, dataset: str, num_ranks: int):
    """{method: MethodMeasurement} for one table cell."""
    return {
        r.method: r
        for r in rows
        if r.dataset == dataset and r.num_ranks == num_ranks
    }
