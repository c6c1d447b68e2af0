"""Tests for the experiment modules (quick-scale variants of every artifact)."""

import os

import pytest

from repro.experiments.figures import (
    FIGURE_DATASETS,
    format_figure,
    render_figure7,
    run_figures,
)
from repro.experiments.harness import clear_workload_cache
from repro.experiments.mmax import format_mmax, run_mmax
from repro.experiments.rotation import VIEWPOINTS, format_rotation, run_rotation
from repro.experiments.tables import format_table1, format_table2, run_table1, run_table2
from repro.volume.io import read_pgm

QUICK = dict(rank_counts=(2, 4), volume_shape=(32, 32, 16), image_size=48)


@pytest.fixture(scope="module", autouse=True)
def fresh_cache():
    clear_workload_cache()
    yield
    clear_workload_cache()


@pytest.fixture(scope="module")
def table1_rows():
    return run_table1(**QUICK)


class TestTable1:
    def test_grid_complete(self, table1_rows):
        # 4 datasets x 2 rank counts x 4 methods
        assert len(table1_rows) == 4 * 2 * 4
        methods = {r.method for r in table1_rows}
        assert methods == {"bs", "bsbr", "bslc", "bsbrc"}

    def test_paper_headline_bs_worst(self, table1_rows):
        """BS must have the largest T_total in every cell."""
        for dataset in ("engine_low", "engine_high", "head", "cube"):
            for p in (2, 4):
                cell = {
                    r.method: r.t_total
                    for r in table1_rows
                    if r.dataset == dataset and r.num_ranks == p
                }
                assert cell["bs"] == max(cell.values())

    def test_format_contains_all_sections(self, table1_rows):
        text = format_table1(table1_rows)
        for dataset in ("engine_low", "engine_high", "head", "cube"):
            assert dataset in text
        assert "Table 1" in text
        assert "(Time unit: ms)" in text


class TestTable2:
    def test_runs_and_formats(self):
        rows = run_table2(rank_counts=(2, 4), volume_shape=(32, 32, 16), image_size=64)
        assert len(rows) == 4 * 2 * 3
        assert {r.method for r in rows} == {"bsbr", "bslc", "bsbrc"}
        text = format_table2(rows)
        assert "Table 2" in text and "BSBRC:Ttotal" in text


class TestFigures:
    def test_figures_mapping(self):
        assert FIGURE_DATASETS == {
            8: "engine_low",
            9: "head",
            10: "engine_high",
            11: "cube",
        }

    def test_format_all_figures(self):
        rows = run_figures(**QUICK)
        for figure in (8, 9, 10, 11):
            text = format_figure(figure, rows)
            assert f"Figure {figure}" in text
            assert "legend" in text
            assert "BSBRC" in text

    def test_unknown_figure(self):
        with pytest.raises(KeyError):
            format_figure(12, [])

    def test_figure7_renders_pgms(self, tmp_path):
        paths = render_figure7(tmp_path, image_size=48, volume_shape=(32, 32, 16))
        assert len(paths) == 4
        for path in paths:
            assert os.path.exists(path)
            gray = read_pgm(path)
            assert gray.shape == (48, 48)
            assert int(gray.max()) > 0  # something visible


class TestMmax:
    def test_quick_report(self):
        report = run_mmax(**QUICK)
        assert len(report.rows) == 4 * 2 * 4
        text = format_mmax(report)
        assert "M_max" in text
        assert ("HOLDS" in text) == report.ordering_holds

    def test_bs_always_largest(self):
        report = run_mmax(**QUICK)
        for dataset in ("engine_low", "cube"):
            for p in (2, 4):
                cell = {
                    r.method: r.mmax_bytes
                    for r in report.rows
                    if r.dataset == dataset and r.num_ranks == p
                }
                assert cell["bs"] == max(cell.values())


class TestRotation:
    def test_observation_counts(self):
        observations = run_rotation(
            dataset="engine_low",
            rank_counts=(4, 8),
            image_size=48,
            volume_shape=(32, 32, 16),
        )
        assert len(observations) == len(VIEWPOINTS) * 2
        for obs in observations:
            assert 0 <= obs.max_nonempty_recv <= obs.stages
            assert obs.empty_recv_total >= 0

    def test_rotation_increases_nonempty_rects(self):
        """The §3.2 trend: more rotation axes → no fewer non-empty rects."""
        observations = run_rotation(
            dataset="engine_low",
            rank_counts=(8,),
            image_size=48,
            volume_shape=(32, 32, 16),
        )
        by_view = {o.viewpoint: o.mean_nonempty_recv for o in observations}
        assert by_view["two-axis"] >= by_view["normal"] - 0.5

    def test_paper_bounds_computed(self):
        observations = run_rotation(
            dataset="engine_low",
            rank_counts=(8,),
            image_size=48,
            volume_shape=(32, 32, 16),
        )
        for obs in observations:
            assert obs.paper_bound > 0

    def test_format(self):
        observations = run_rotation(
            dataset="engine_low",
            rank_counts=(4,),
            image_size=48,
            volume_shape=(32, 32, 16),
        )
        text = format_rotation(observations)
        assert "viewpoint" in text and "two-axis" in text
