"""Pair-protocol verdicts of ``tools/bench_pairs.py``, without running a
benchmark: the driver boundary is monkeypatched."""

import importlib.util
import os

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture()
def pairs():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs_under_test", os.path.join(REPO_ROOT, "tools", "bench_pairs.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LOWER, HIGHER = -1.0, 1.0


@pytest.mark.parametrize(
    "sign, parent, change, verdict",
    [
        # Tight parent, change within the 25 % bound either way.
        (LOWER, [100, 101, 102, 103], [110, 111, 112, 113], "ok"),
        (LOWER, [100, 101, 102, 103], [130, 131, 132, 133], "worse"),
        (HIGHER, [100, 101, 102, 103], [70, 71, 72, 73], "worse"),
        # Parent spread (q3 - q1) is ~50 % of its median: too noisy to
        # tell, unless every change run beats every parent run.
        (LOWER, [50, 80, 120, 150], [60, 90, 110, 140], "unresolved"),
        (LOWER, [50, 80, 120, 150], [40, 42, 44, 46], "ok"),
        (HIGHER, [50, 80, 120, 150], [160, 170, 180, 190], "ok"),
    ],
)
def test_regress_verdicts(pairs, sign, parent, change, verdict):
    assert pairs.regress(sign, 0.25, parent, change) == verdict


def test_several_workloads_each_get_the_full_protocol(pairs, monkeypatch, capsys):
    calls = []

    def run_once(command, tree):
        calls.append((command[command.index("--workload") + 1], tree))
        value = 100.0 if tree == "parent-tree" else 101.0
        return {
            "metrics": {name: {"value": value} for name in
                        ("setup_s", "op_ms_p50", "ops_per_s", "first_frame_ms_p50",
                         "peak_rss_mb")},
            "correct": True, "failed": 0, "attempted": 3,
        }

    monkeypatch.setattr(pairs, "checkout", lambda rev, scratch: "parent-tree")
    monkeypatch.setattr(pairs, "run_once", run_once)
    assert pairs.main(["--against", "HEAD", "--workload", "composite_paper",
                       "composite_scale", "--pairs", "3"]) == 0
    assert [w for w, _ in calls] == ["composite_paper"] * 6 + ["composite_scale"] * 6
    out = capsys.readouterr().out
    assert out.count("3 pairs against HEAD") == 2
    assert "regress" in out and "worse" not in out and "unresolved" not in out


def _run(values):
    return {"metrics": {name: {"value": value} for name, value in values.items()},
            "correct": True, "failed": 0, "attempted": 3}


def test_first_frame_share_prints_only_where_the_first_frame_is_early(pairs):
    metrics = [{"name": name, "unit": "ms", "better": "lower", "bound": 0.25}
               for name in ("op_ms_p50", "first_frame_ms_p50")]
    whole = {"parent": [_run({"op_ms_p50": 100.0, "first_frame_ms_p50": 100.0})] * 3,
             "change": [_run({"op_ms_p50": 90.0, "first_frame_ms_p50": 90.0})] * 3}
    assert "first frame / op" not in pairs.report(metrics, whole)
    early = {"parent": [_run({"op_ms_p50": 200.0, "first_frame_ms_p50": 164.0})] * 3,
             "change": [_run({"op_ms_p50": 140.0, "first_frame_ms_p50": 106.4})] * 3}
    out = pairs.report(metrics, early)
    assert "parent: first frame / op 0.82 (medians 164.0 / 200.0 ms)" in out
    assert "change: first frame / op 0.76 (medians 106.4 / 140.0 ms)" in out
