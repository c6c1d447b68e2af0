"""Self-tests of the benchmark harness (not part of tier-1).

    python -m pytest benchmarks/e2e -q

They check the yardstick, not the program: the statistics, the span
arithmetic, seeding, failure accounting and the ``BENCHMARK.json``
contract, plus smoke-sized runs of the real command.
"""

from __future__ import annotations

import itertools
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import harness as h  # noqa: E402
from run import RUN_SECONDS  # noqa: E402
from workloads import WORKLOADS, cameras  # noqa: E402


# ---- percentile / sample-count rule -----------------------------------------
def test_percentile_interpolates_linearly():
    assert h.percentile([1, 2, 3, 4, 5], 50) == 3
    assert h.percentile([10, 20], 50) == 15
    assert h.percentile(range(101), 90) == 90
    assert h.percentile([7], 90) == 7
    with pytest.raises(ValueError):
        h.percentile([], 50)


def test_p90_needs_a_hundred_samples():
    assert h.p90_or_none(list(range(99))) is None
    assert h.p90_or_none(list(range(100))) == pytest.approx(89.1)


# ---- span self-time arithmetic ----------------------------------------------
def _tracer_with(*spans):
    tracer = h.Tracer()
    for layer, start, end, parent in spans:
        tracer.add("op", layer, layer, start, end, parent)
    return tracer


def test_self_time_subtracts_nested_and_replayed_children():
    tracer = _tracer_with(
        ("pipeline", 0.000, 0.100, None),   # 0: the opaque real call
        ("render", 0.200, 0.260, 0),        # 1: replayed outside the parent
        ("compositing", 0.260, 0.290, 0),   # 2: replayed outside the parent
        ("cluster", 0.300, 0.310, 2),       # 3: engine probe, child of 2
    )
    own = h.self_times_ms(tracer.spans)
    assert own[0] == pytest.approx(10.0)    # 100 - 60 - 30
    assert own[1] == pytest.approx(60.0)
    assert own[2] == pytest.approx(20.0)    # 30 - 10
    assert own[3] == pytest.approx(10.0)
    assert sum(own.values()) == pytest.approx(100.0)
    layers = h.layer_self_ms(tracer.spans)
    assert layers == pytest.approx(
        {"pipeline": 10.0, "render": 60.0, "compositing": 20.0, "cluster": 10.0})


def test_self_time_never_goes_negative():
    tracer = _tracer_with(("pipeline", 0.0, 0.010, None), ("render", 1.0, 1.015, 0))
    assert h.self_times_ms(tracer.spans)[0] == 0.0


def test_attribution_counts_harness_time_as_uncovered():
    tracer = _tracer_with(
        ("harness", 0.0, 0.100, None),
        ("serving.spool", 0.0, 0.010, 0),
        ("serving.service", 0.010, 0.095, 0),
    )
    report = h.attribution(tracer.spans)
    assert report["ops"] == 1
    assert report["coverage"] == pytest.approx(0.95)
    assert report["self_share"]["harness"] == pytest.approx(0.05)
    assert report["self_share"]["serving.service"] == pytest.approx(0.85)


def test_span_context_manager_records_real_time():
    tracer = h.Tracer()
    with tracer.span("op", "render", "outer") as outer:
        with tracer.span("op", "render", "inner", outer):
            pass
    a, b = tracer.spans
    assert b.parent == a.id and a.start <= b.start <= b.end <= a.end


# ---- seed -> identical op list ----------------------------------------------
def test_same_seed_same_ops_other_seed_other_ops():
    def first(seed, n=20):
        return list(itertools.islice(cameras(seed, "oneshot_sparse", 1), n))

    assert first(5) == first(5)
    assert first(5) != first(6)
    assert first(5) != list(itertools.islice(cameras(5, "oneshot_sparse", 2), 20))
    assert all(0.0 <= c["rot_x"] <= 45.0 and 0.0 <= c["rot_y"] <= 90.0 for c in first(5))


def test_a_faster_program_sees_a_longer_prefix_of_the_same_stream():
    stream = WORKLOADS["serve_inproc"]("smoke", 11, 2).ops(client=1)
    ops = list(itertools.islice(stream, 5))
    assert [op["key"] for op in ops] == [f"2.1.{i}" for i in range(5)]
    again = WORKLOADS["serve_inproc"]("smoke", 11, 2).ops(client=1)
    assert list(itertools.islice(again, 3)) == ops[:3]


# ---- failed_share counting --------------------------------------------------
def _block(ops, failed, setup=1.0):
    return h.BlockResult("oneshot_sparse", 0, setup, {}, ops, failed, 100.0, 1.0, 1.0)


def _op(ms, ok=True, timed=True, pinned=False):
    return {"ev": "op", "key": "k", "ok": ok, "timed": timed, "pinned": pinned,
            "ms": ms, "first_ms": ms, "modelled_ms": 2.0, "first_pixel_ms": None}


def test_failed_ops_stay_in_the_denominator_and_out_of_the_timings():
    blocks = [
        _block([_op(10, timed=False, pinned=True), _op(10), _op(20)], 0),
        _block([_op(10, timed=False, pinned=True), _op(30),
                {"ev": "op", "key": "k", "ok": False, "timed": True, "err": "x"}], 1),
    ]
    summary = h.summarise("oneshot_sparse", blocks)
    assert summary["attempted"] == 6 and summary["failed"] == 1
    cell = summary["metrics"]["failed_share"]
    assert cell["value"] == pytest.approx(1 / 6) and cell["n"] == 6
    assert summary["metrics"]["op_ms_p50"]["value"] == 20
    assert summary["metrics"]["op_ms_p50"]["n"] == 3
    assert summary["metrics"]["op_ms_p90"]["value"] is None  # n < 100
    assert summary["metrics"]["modelled_ms"]["value"] == 2.0
    assert summary["metrics"]["ops_per_s"]["value"] == pytest.approx(3 / 0.060)


def test_budget_cuts_a_blocks_limit_then_refuses_to_start_it():
    assert h.Budget(None).block_limit_s(3.0) == h.block_limit_s(3.0)
    assert h.Budget(1000.0).block_limit_s(3.0) == h.block_limit_s(3.0)
    cut = h.Budget(40.0).block_limit_s(3.0)
    assert 39.0 < cut <= 40.0
    assert h.Budget(3.0 + h.SETUP_TIMEOUT_S / 4 - 1.0).block_limit_s(3.0) is None


def test_verdicts_use_each_metrics_own_bound():
    metric = next(m for m in h.E2E if m.name == "op_ms_p50")
    assert h.verdict(metric, 100.0, 100.0 * (1 + metric.bound / 2), 0.01,
                     metric.bound / 2) == "ok"
    assert h.verdict(metric, 100.0, 200.0, 0.01, 1.0) == "regressed"
    assert h.verdict(metric, 100.0, 200.0, metric.bound + 0.01, 1.0) == "unresolved"
    exact = next(m for m in h.E2E if m.name == "modelled_ms")
    assert h.verdict(exact, 27.1, 27.1, 0.0, 0.0) == "ok"
    assert h.verdict(exact, 27.1, 27.10001, 0.0, 0.0) == "regressed"
    rate = next(m for m in h.E2E if m.name == "ops_per_s")
    assert h.worse_by(rate, 10.0, 8.0) == pytest.approx(0.2)   # higher is better
    assert h.worse_by(metric, 10.0, 8.0) == pytest.approx(-0.2)


def test_golden_mismatch_is_reported_per_field():
    golden = {"workloads": {"oneshot_sparse": {
        "0.0.0": {"digest": "aa", "modelled_ms": 2.0, "first_pixel_ms": None}}}}
    good = dict(_op(10, timed=False, pinned=True), key="0.0.0", digest="aa")
    bad = dict(good, modelled_ms=2.5)
    assert h.golden_mismatches("oneshot_sparse", [_block([good], 0)], golden) == []
    problems = h.golden_mismatches("oneshot_sparse", [_block([bad], 0)], golden)
    assert len(problems) == 1 and "modelled_ms" in problems[0]


# ---- BENCHMARK.json ---------------------------------------------------------
def _doc():
    return h.load_json(h.BENCHMARK_JSON)


def test_benchmark_json_is_what_the_tables_generate():
    doc = h.benchmark_doc([(n, c.why) for n, c in WORKLOADS.items()], RUN_SECONDS)
    assert _doc() == json.loads(json.dumps(doc))


def test_benchmark_json_meets_the_contract():
    doc = _doc()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert doc["paths"] == ["benchmarks/e2e"]
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60
    names = [e["name"] for key in ("workloads", "end_to_end", "per_layer")
             for e in doc[key]]
    assert len(names) == len(set(names))
    assert all(h.NAME_RE.match(name) for name in names)
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    for entry in doc["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25 and unit.match(entry["unit"])
    for entry in doc["per_layer"]:
        assert set(entry) == {"name", "unit", "better"} and unit.match(entry["unit"])
    for entry in doc["workloads"]:
        assert set(entry) == {"name", "why"}
        assert "\n" not in entry["why"] and len(entry["why"]) <= 200
    setup = next(e for e in doc["end_to_end"] if e["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(e["bound"] for e in doc["end_to_end"])
    assert os.path.getsize(h.BENCHMARK_JSON) <= 64 * 1024


def test_stored_numbers_cover_every_declared_metric():
    baseline = h.load_json(h.BASELINE_JSON)
    for name in WORKLOADS:
        cells = baseline["end_to_end"][name]["metrics"]
        assert {m.name for m in h.e2e_for(name)} == set(cells)
    layer = baseline["per_layer"]
    declared = {m.name for m in h.PER_LAYER}
    for name in WORKLOADS:
        assert declared == set(layer["probes"]) | set(layer["by_workload"][name])


# ---- the real command, smoke-sized ------------------------------------------
def _run(*args, cwd=h.REPO_ROOT, script=h.RUN_PY):
    return subprocess.run([sys.executable, script, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", ["oneshot_sparse", "serve_spool"])
def test_untraced_run_prints_every_end_to_end_metric(workload):
    proc = _run("--smoke", "--seconds", "0.6", "--seed", "4",
                "--workload", workload, "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 3 * h.GOLDEN_OPS
    assert set(result["metrics"]) == {e["name"] for e in _doc()["end_to_end"]}
    assert all(cell["value"] > 0 for cell in result["metrics"].values())


def test_traced_run_prints_every_per_layer_metric_and_a_trace():
    proc = _run("--smoke", "--seconds", "0.6", "--seed", "4",
                "--workload", "composite_paper", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {e["name"] for e in _doc()["per_layer"]}
    trace = h.load_json(os.path.join(h.OUT_DIR, "trace-composite_paper.json"))
    assert trace["attribution"]["coverage"] >= 0.9
    assert {"op_id", "layer", "name", "parent", "start", "end"} <= set(trace["spans"][0])


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(h.BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "oneshot_sparse", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path,
                script=str(tmp_path / "benchmarks" / "e2e" / "run.py"))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
