"""Tests for the experiments CLI (quick mode end-to-end)."""

import os

import pytest

from repro.cluster.faults import FaultPlan, FaultRule
from repro.experiments.cli import build_parser, main
from repro.experiments.harness import clear_workload_cache


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_workload_cache()
    yield
    clear_workload_cache()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_quick_flag(self):
        args = build_parser().parse_args(["--quick", "table1"])
        assert args.quick and args.command == "table1"

    def test_figure_choice_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figures", "--figure", "5"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--backend", "mpi"],
            ["serve", "--spool", "spool", "--backend", "threads"],
        ],
    )
    def test_backend_choices_come_from_the_registry(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err and "'mp'" in err and "'sim'" in err


class TestCommands:
    def test_table1_quick(self, tmp_path, capsys):
        code = main(["--quick", "--out", str(tmp_path), "table1"])
        assert code == 0
        assert (tmp_path / "table1.txt").exists()
        assert (tmp_path / "table1.json").exists()
        out = capsys.readouterr().out
        assert "Table 1" in out

    def test_figures_quick_single(self, tmp_path, capsys):
        code = main(["--quick", "--out", str(tmp_path), "figures", "--figure", "11"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 11" in out
        assert "Figure 8" not in out

    def test_fig7_quick(self, tmp_path, capsys):
        code = main(["--quick", "--out", str(tmp_path), "fig7"])
        assert code == 0
        pgms = [f for f in os.listdir(tmp_path) if f.endswith(".pgm")]
        assert len(pgms) == 4

    def test_mmax_quick(self, tmp_path, capsys):
        code = main(["--quick", "--out", str(tmp_path), "mmax"])
        assert code == 0
        assert "M_max" in capsys.readouterr().out

    def test_rotation_quick(self, tmp_path, capsys):
        code = main(["--quick", "--out", str(tmp_path), "rotation"])
        assert code == 0
        assert "viewpoint" in capsys.readouterr().out

    TILE_RUN = ["run", "--method", "tile-routed:rect-rle", "--ranks", "4"]

    def test_clean_tile_routed_run_prints_no_fault_events(self, tmp_path, capsys):
        """``tile_complete`` latency records are not fault events."""
        code = main(["--quick", "--out", str(tmp_path), *self.TILE_RUN])
        assert code == 0
        out = capsys.readouterr().out
        assert "Pipeline run" in out
        assert "fault events" not in out and "tile_complete" not in out

    def test_render_crash_run_lists_its_fault_events(self, tmp_path, capsys):
        plan = tmp_path / "crash.json"
        FaultPlan(rules=(FaultRule(kind="crash", rank=1, phase="render"),), seed=3).save(plan)
        code = main(["--quick", "--out", str(tmp_path), *self.TILE_RUN, "--fault-plan", str(plan)])
        assert code == 0
        out = capsys.readouterr().out
        assert "fault events        = 4" in out
        for kind in ("injected", "detected", "recovery", "degraded"):
            assert f"{{'event': '{kind}'" in out
        assert "tile_complete" not in out
