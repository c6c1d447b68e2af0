"""Tests for the timeline/Gantt analysis tooling and machine presets."""

import json

import pytest

from conftest import rendered_workload
from repro.analysis.timeline import ascii_gantt, intervals_from_stats
from repro.cluster.model import (
    ETHERNET_CLUSTER,
    MODERN_CLUSTER,
    PRESETS,
    SP2,
    T3E,
)
from repro.cluster.run_timeline import RunTimeline
from repro.cluster.simulator import Simulator, TraceEvent
from repro.cluster.stats import RankStats, RunResult
from repro.pipeline.system import run_compositing


def fabricate_result():
    rs0 = RankStats(rank=0)
    stage = rs0.stage(0)
    stage.comp_time = 2.0
    stage.comm_time = 1.0
    rs1 = RankStats(rank=1)
    stage = rs1.stage(0)
    stage.comp_time = 0.5
    stage.wait_time = 1.5
    stage.comm_time = 1.0
    return RunResult(num_ranks=2, returns=[None, None], rank_stats=[rs0, rs1],
                     makespan=3.0)


class TestIntervals:
    def test_kinds_and_ordering(self):
        intervals = intervals_from_stats(fabricate_result())
        rank1 = [iv for iv in intervals if iv.rank == 1]
        assert [iv.kind for iv in rank1] == ["compute", "wait", "comm"]
        # back-to-back spans
        assert rank1[0].end == rank1[1].start
        assert rank1[1].end == rank1[2].start

    def test_durations_match_stats(self):
        intervals = intervals_from_stats(fabricate_result())
        total0 = sum(iv.duration for iv in intervals if iv.rank == 0)
        assert total0 == pytest.approx(3.0)

    def test_zero_durations_skipped(self):
        intervals = intervals_from_stats(fabricate_result())
        assert all(iv.duration > 0 for iv in intervals)


class TestGantt:
    def test_structure(self):
        chart = ascii_gantt(fabricate_result(), title="demo")
        lines = chart.splitlines()
        assert lines[0] == "demo"
        assert lines[2].startswith("r00 |")
        assert lines[3].startswith("r01 |")
        assert "legend" in lines[-1]
        assert "#" in chart and "=" in chart and "." in chart

    def test_empty_run(self):
        empty = RunResult(num_ranks=1, returns=[None],
                          rank_stats=[RankStats(rank=0)], makespan=0.0)
        assert "no recorded activity" in ascii_gantt(empty)

    def test_real_run_shows_wait_for_unbalanced_method(self):
        subimages, plan, camera = rendered_workload("engine_high", 8)
        run = run_compositing(list(subimages), "bsbr", plan, camera.view_dir, SP2)
        chart = ascii_gantt(run.stats)
        assert "." in chart  # unbalanced rect sizes → someone waits

    def test_width_respected(self):
        chart = ascii_gantt(fabricate_result(), width=40)
        for line in chart.splitlines():
            if line.startswith("r0"):
                assert len(line) == len("r00 ||") + 40


class TestTraceJson:
    """A trace is exported as the ``trace`` list of the run-timeline document."""

    def test_roundtrip(self):
        events = [TraceEvent(time=0.5, rank=1, kind="post", detail="x")]
        timeline = RunTimeline(
            backend="sim", clock="modelled", num_ranks=2, makespan=0.5, trace_events=events
        )
        data = json.loads(timeline.to_json())["trace"]
        assert data == [{"time": 0.5, "rank": 1, "kind": "post", "detail": "x"}]
        assert RunTimeline.from_json(timeline.to_json()).trace_events == events

    def test_from_real_trace(self):
        async def program(ctx):
            await ctx.compute(1e-3)
            await ctx.sendrecv(ctx.rank ^ 1, b"x")

        sim = Simulator(2, SP2, trace=True)
        sim.run(program)
        timeline = RunTimeline(
            backend="sim", clock="modelled", num_ranks=2, makespan=0.0,
            trace_events=sim.trace_events,
        )
        data = json.loads(timeline.to_json())["trace"]
        assert len(data) > 0
        assert {e["kind"] for e in data} >= {"compute", "post"}


class TestMachinePresets:
    def test_all_presets_registered(self):
        for model in (T3E, ETHERNET_CLUSTER, MODERN_CLUSTER):
            assert PRESETS[model.name] is model

    def test_t3e_faster_everywhere(self):
        assert T3E.tc < SP2.tc and T3E.ts < SP2.ts and T3E.to < SP2.to

    def test_ethernet_network_much_slower(self):
        assert ETHERNET_CLUSTER.tc > SP2.tc
        assert ETHERNET_CLUSTER.ts > SP2.ts

    def test_modern_cluster_orders_of_magnitude(self):
        assert MODERN_CLUSTER.to < SP2.to / 100
        assert MODERN_CLUSTER.tc < SP2.tc / 10

    def test_runconfig_accepts_new_presets(self):
        from repro.pipeline.config import RunConfig

        for name in ("t3e", "ethernet-cluster", "modern-cluster"):
            assert RunConfig(machine=name).machine is PRESETS[name]

    def test_crossovers_shift_with_architecture(self):
        """On the Ethernet cluster (expensive bytes) BSLC's tiny messages
        close most of its gap to BSBRC; on the T3E (cheap bytes) the gap
        is dominated by BSLC's encode CPU and stays wide."""
        subimages, plan, camera = rendered_workload("engine_high", 8)
        gaps = {}
        for model in (T3E, ETHERNET_CLUSTER):
            bslc = run_compositing(list(subimages), "bslc", plan, camera.view_dir, model)
            bsbrc = run_compositing(list(subimages), "bsbrc", plan, camera.view_dir, model)
            gaps[model.name] = bslc.stats.t_total / bsbrc.stats.t_total
        assert gaps["ethernet-cluster"] < gaps["t3e"]
