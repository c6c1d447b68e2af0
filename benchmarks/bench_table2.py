"""Benchmark T2 — regenerate the paper's Table 2 (768x768) and check shape.

The paper's second table drops plain BS and compares BSBR / BSLC /
BSBRC on the four datasets at the larger image.  Its stated findings:
"the results are similar to those of Table 1; in general, the BSBRC
method has the best overall performance".
"""

import pytest

from conftest import PAPER_RANKS, cell, emit
from repro.experiments.tables import TABLE2_METHODS, format_table2, run_table2
from repro.volume.datasets import PAPER_DATASETS


def check_table2_shape(rows):
    for dataset in PAPER_DATASETS:
        for p in PAPER_RANKS:
            c = cell(rows, dataset, p)
            assert set(c) == set(TABLE2_METHODS), (dataset, p)
            # BSBRC ships no more than BSBR.
            assert c["bsbrc"].t_comm <= c["bsbr"].t_comm * 1.02, (dataset, p)
            # BSBRC best or near-best total.
            best = min(m.t_total for m in c.values())
            assert c["bsbrc"].t_total <= best * 1.15, (dataset, p)
        # BSLC's encode-everything T_comp dominates at scale — at the
        # larger image this is the paper's clearest effect (its Table 2
        # BSLC T_comp is 2-3x the others).
        for p in (8, 16, 32, 64):
            c = cell(rows, dataset, p)
            assert c["bslc"].t_comp > 1.4 * c["bsbrc"].t_comp, (dataset, p)
    # Sparse datasets: BSBRC strictly best.
    for dataset in ("engine_high", "cube"):
        for p in PAPER_RANKS:
            c = cell(rows, dataset, p)
            assert c["bsbrc"].t_total == min(m.t_total for m in c.values()), (
                dataset,
                p,
            )


@pytest.fixture(scope="module")
def table2_rows():
    return run_table2(rank_counts=PAPER_RANKS)


def test_bench_table2_grid(benchmark):
    from repro.experiments.harness import workload

    for dataset in PAPER_DATASETS:  # pre-render outside the timed region
        workload(dataset, 768, max_ranks=64)
    rows = benchmark.pedantic(
        lambda: run_table2(rank_counts=PAPER_RANKS), rounds=1, iterations=1
    )
    assert len(rows) == 4 * 6 * 3
    check_table2_shape(rows)
    emit("table2", format_table2(rows))


def test_table2_shape(table2_rows):
    check_table2_shape(table2_rows)


def test_table2_times_scale_with_image(table2_rows, table1_rows):
    """768^2 has 4x the pixels of 384^2: BSLC's full-scan T_comp must
    scale accordingly (the paper's Table 1 -> Table 2 jump)."""
    for dataset in PAPER_DATASETS:
        small = cell(table1_rows, dataset, 8)["bslc"].t_comp
        large = cell(table2_rows, dataset, 8)["bslc"].t_comp
        assert 2.0 < large / small < 8.0, dataset
