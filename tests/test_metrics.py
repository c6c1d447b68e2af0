"""Tests for analysis.metrics, tables and plots."""

import pytest

from repro.analysis.metrics import (
    MethodMeasurement,
    check_mmax_ordering,
    measure,
    speedup,
)
from repro.analysis.plots import ascii_line_plot, series_summary
from repro.analysis.tables import format_generic, format_mmax_table, format_paper_table
from repro.cluster.stats import RankStats, RunResult


def make_result(comp=(1.0, 2.0), comm=(0.5, 0.25), recv=(100, 300)):
    ranks = []
    for idx, (c, m, b) in enumerate(zip(comp, comm, recv)):
        rs = RankStats(rank=idx)
        bucket = rs.stage(0)
        bucket.comp_time = c
        bucket.comm_time = m
        bucket.bytes_recv = b
        bucket.counters = {"over": 10 * (idx + 1), "encode": 5}
        ranks.append(rs)
    return RunResult(num_ranks=len(ranks), returns=[None] * len(ranks),
                     rank_stats=ranks, makespan=max(c + m for c, m in zip(comp, comm)))


def row(method="bs", dataset="engine_low", p=2, t_comp=0.1, t_comm=0.05, mmax=100):
    return MethodMeasurement(
        method=method, dataset=dataset, image_size=384, num_ranks=p,
        t_comp=t_comp, t_comm=t_comm, mmax_bytes=mmax, makespan=t_comp + t_comm,
        bytes_total=mmax * p, pixels_composited=10, pixels_encoded=5,
    )


class TestRunResultReductions:
    def test_critical_rank_is_max_total(self):
        result = make_result(comp=(1.0, 2.0), comm=(0.5, 0.25))
        assert result.critical_rank == 1
        assert result.t_comp == 2.0
        assert result.t_comm == 0.25
        assert result.t_total == 2.25

    def test_columns_additive(self):
        result = make_result()
        assert result.t_total == pytest.approx(result.t_comp + result.t_comm)

    def test_mmax(self):
        assert make_result().mmax_bytes == 300

    def test_means_and_maxes(self):
        result = make_result(comp=(1.0, 3.0), comm=(2.0, 0.0))
        assert result.t_comp_max == 3.0
        assert result.t_comm_max == 2.0

    def test_counter_total(self):
        assert make_result().counter_total("over") == 30


class TestMeasure:
    def test_measure_builds_row(self):
        result = make_result()
        m = measure(result, method="bsbrc", dataset="cube", image_size=384)
        assert m.method == "bsbrc"
        assert m.t_total == pytest.approx(result.t_total)
        assert m.mmax_bytes == 300
        assert m.pixels_composited == 30

    def test_dict_roundtrip(self):
        m = row()
        again = MethodMeasurement.from_dict(m.as_dict())
        assert again == m


class TestMmaxOrdering:
    def test_holds(self):
        assert check_mmax_ordering({"bs": 100, "bsbr": 80, "bsbrc": 60, "bslc": 50}) == []

    def test_violation_reported(self):
        violations = check_mmax_ordering({"bs": 10, "bsbr": 80})
        assert len(violations) == 1
        assert "bs" in violations[0]

    def test_missing_methods_skipped(self):
        assert check_mmax_ordering({"bs": 100, "bslc": 50}) == []

    def test_tolerances(self):
        mmax = {"bsbrc": 95, "bslc": 100}
        assert check_mmax_ordering(mmax)
        assert check_mmax_ordering(mmax, tolerance_bytes=5) == []
        assert check_mmax_ordering(mmax, rel_tolerance=0.06) == []


class TestSpeedup:
    def test_basic(self):
        assert speedup(2.0, 1.0) == 2.0

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            speedup(1.0, 0.0)


class TestTables:
    def test_paper_table_structure(self):
        rows = [
            row(method=m, p=p)
            for m in ("bs", "bsbr")
            for p in (2, 4)
        ]
        text = format_paper_table(rows, methods=("bs", "bsbr"), datasets=("engine_low",))
        assert "engine_low" in text
        assert "BS:Tcomp" in text and "BSBR:Ttotal" in text
        assert "(Time unit: ms)" in text
        # both P rows present
        assert "\n" in text

    def test_missing_cells_dash(self):
        rows = [row(method="bs", p=2)]
        text = format_paper_table(rows, methods=("bs", "bsbr"), datasets=("engine_low",))
        assert "-" in text

    def test_mmax_table(self):
        rows = [row(method=m, mmax=100 - i) for i, m in enumerate(("bs", "bsbr"))]
        text = format_mmax_table(rows, methods=("bs", "bsbr"), datasets=("engine_low",))
        assert "100" in text and "99" in text

    def test_generic_table_alignment(self):
        text = format_generic(["a", "bb"], [[1, 22], [333, 4]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert len(set(len(line) for line in lines)) == 1


class TestPlots:
    def test_plot_contains_markers_and_legend(self):
        series = {"BSBR": [5.0, 4.0, 3.0], "BSBRC": [4.0, 3.0, 2.0]}
        text = ascii_line_plot(series, [2, 4, 8], title="T", y_label="ms")
        assert "legend" in text
        assert "BSBR" in text and "BSBRC" in text
        assert "o" in text and "x" in text

    def test_plot_single_point(self):
        text = ascii_line_plot({"A": [1.0]}, [2])
        assert "A" in text

    def test_plot_flat_series(self):
        text = ascii_line_plot({"A": [3.0, 3.0]}, [1, 2])
        assert "A" in text

    def test_plot_requires_matching_lengths(self):
        with pytest.raises(ValueError):
            ascii_line_plot({"A": [1.0, 2.0]}, [1])

    def test_plot_requires_series(self):
        with pytest.raises(ValueError):
            ascii_line_plot({}, [1])

    def test_series_summary_values(self):
        text = series_summary({"A": [1.5, 2.5]}, [2, 4])
        assert "1.5" in text and "2.5" in text
