"""Benchmark T1 — regenerate the paper's Table 1 and check its shape.

Times the full 4-method x 4-dataset x P=2..64 compositing grid at
384x384 (the paper's first experiment) and asserts the qualitative
claims of §4 on the regenerated numbers.  The shape checks run both
inside the benchmark test (so ``--benchmark-only`` still verifies them)
and as standalone tests for plain ``pytest benchmarks/``.
"""

from conftest import PAPER_RANKS, cell, emit
from repro.experiments.tables import format_table1, run_table1
from repro.volume.datasets import PAPER_DATASETS


def check_table1_shape(rows):
    """Assert the paper's §4 qualitative claims on regenerated rows."""
    for dataset in PAPER_DATASETS:
        # BS worst everywhere; its T_comp grows monotonically toward To*A.
        comps = [cell(rows, dataset, p)["bs"].t_comp for p in PAPER_RANKS]
        assert comps == sorted(comps) and comps[-1] > comps[0], dataset
        for p in PAPER_RANKS:
            c = cell(rows, dataset, p)
            assert c["bs"].t_total == max(m.t_total for m in c.values()), (dataset, p)
            # Eq. (4) vs (8): BSBRC ships no more than BSBR.
            assert c["bsbrc"].t_comm <= c["bsbr"].t_comm * 1.02, (dataset, p)
            # "in most cases ... the BSLC method has the smallest
            # communication time" — the paper's own §4 wording allows
            # exceptions (it cites P=2); grant a 5% band elsewhere too.
            if p > 2:
                assert c["bslc"].t_comm <= min(m.t_comm for m in c.values()) * 1.05, (
                    dataset,
                    p,
                )
            # BSBRC best or near-best overall (BSBR may edge it on dense
            # data at some P, exactly as in the paper's Figure 9).
            best = min(m.t_total for m in c.values())
            assert c["bsbrc"].t_total <= best * 1.15, (dataset, p)
        # "T_comp(BSLC) is much larger than T_comp(BSBRC)/(BSBR)" at scale.
        for p in (8, 16, 32, 64):
            c = cell(rows, dataset, p)
            assert c["bslc"].t_comp > c["bsbr"].t_comp, (dataset, p)
            assert c["bslc"].t_comp > c["bsbrc"].t_comp, (dataset, p)
        # Headline speedup of sparse compositing over plain binary swap.
        c64 = cell(rows, dataset, 64)
        assert c64["bs"].t_total / c64["bsbrc"].t_total > 3.0, dataset
    # Figures 10-11 regime: BSBRC wins outright on the sparse datasets.
    for dataset in ("engine_high", "cube"):
        for p in PAPER_RANKS:
            c = cell(rows, dataset, p)
            assert c["bsbrc"].t_total == min(m.t_total for m in c.values()), (
                dataset,
                p,
            )


def test_bench_table1_grid(benchmark):
    """Time one full Table 1 regeneration (renders cached beforehand)."""
    from repro.experiments.harness import workload

    for dataset in PAPER_DATASETS:  # pre-render outside the timed region
        workload(dataset, 384, max_ranks=64)
    rows = benchmark.pedantic(
        lambda: run_table1(rank_counts=PAPER_RANKS), rounds=1, iterations=1
    )
    assert len(rows) == 4 * 6 * 4
    check_table1_shape(rows)
    emit("table1", format_table1(rows))


def test_table1_shape(table1_rows):
    """Standalone shape check for non-benchmark runs."""
    check_table1_shape(table1_rows)
