"""Benchmark C1 — quantified reproduction fidelity vs the published tables.

Regenerates Tables 1 and 2 and scores them against the paper's own
numbers (transcribed in ``repro.experiments.paper_data``).  The asserted
thresholds encode "the shape reproduces": the same method wins most
cells, pairwise method orderings agree overwhelmingly, and measured
totals rank-correlate strongly with the published ones.
"""

from conftest import PAPER_RANKS, emit
from repro.experiments.compare import compare_to_paper, format_fidelity
from repro.experiments.tables import run_table2


def test_bench_fidelity_table1(benchmark, table1_rows):
    report = benchmark.pedantic(
        lambda: compare_to_paper(table1_rows), rounds=1, iterations=1
    )
    emit("fidelity_table1", format_fidelity(report))
    assert report.cells_compared == 96
    assert report.winner_agreement >= 0.6
    assert report.pairwise_agreement >= 0.85
    assert report.spearman_total >= 0.8
    # Every winner mismatch is a near-tie between the two best sparse
    # methods, never a BS-vs-sparse or BSLC-at-scale confusion.
    for line in report.mismatched_winners:
        assert "bs " not in line.split("=")[1]
        assert ("bsbr" in line and "bsbrc" in line) or "bslc" in line


def test_bench_fidelity_table2(benchmark):
    rows = run_table2(rank_counts=PAPER_RANKS)
    report = benchmark.pedantic(lambda: compare_to_paper(rows), rounds=1, iterations=1)
    emit("fidelity_table2", format_fidelity(report))
    assert report.cells_compared == 72
    assert report.winner_agreement >= 0.6
    assert report.pairwise_agreement >= 0.75
    assert report.spearman_total >= 0.5
    # BSLC — the method whose cost is dominated by the content-free
    # encode term — tracks the paper tightest (its per-method rank
    # correlation and ratio band are informative regardless).
    q25, median, q75 = report.per_method_ratio["bslc"]
    assert 0.7 < median < 1.3
