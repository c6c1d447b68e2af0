"""The unified run-timeline JSON schema (same document from every backend)."""

import json

import pytest

from repro.cluster.backend import MPBackend, SimBackend
from repro.cluster.model import SP2
from repro.cluster.run_timeline import TIMELINE_SCHEMA, RunTimeline
from repro.errors import ConfigurationError
from repro.pipeline.config import RunConfig
from repro.pipeline.system import SortLastSystem

SMALL = dict(dataset="sphere", volume_shape=(16, 16, 16), image_size=24, num_ranks=2)


async def _traffic_program(ctx):
    ctx.begin_stage(0)
    await ctx.sendrecv(ctx.rank ^ 1, b"z" * (10 + ctx.rank), tag=1)
    await ctx.charge_encode(33)
    return ctx.rank


def _sim_timeline(**meta) -> RunTimeline:
    return SimBackend().run(2, _traffic_program, model=SP2, trace=True).timeline(meta)


class TestRoundTrip:
    def test_json_roundtrip_preserves_everything(self):
        timeline = _sim_timeline(dataset="unit", purpose="roundtrip")
        clone = RunTimeline.from_json(timeline.to_json())
        assert clone.to_dict() == timeline.to_dict()
        assert clone.backend == "sim" and clone.clock == "modelled"
        assert clone.meta == {"dataset": "unit", "purpose": "roundtrip"}
        assert len(clone.trace_events) == len(timeline.trace_events) > 0

    def test_save_load(self, tmp_path):
        path = tmp_path / "timeline.json"
        timeline = _sim_timeline()
        timeline.save(path)
        loaded = RunTimeline.load(path)
        assert loaded.to_dict() == timeline.to_dict()
        # And the on-disk document is plain JSON with the schema marker.
        raw = json.loads(path.read_text())
        assert raw["schema"] == TIMELINE_SCHEMA

    def test_unknown_schema_rejected(self):
        data = _sim_timeline().to_dict()
        data["schema"] = "repro.run-timeline/999"
        with pytest.raises(ConfigurationError, match="schema"):
            RunTimeline.from_dict(data)


class TestBackendUniformity:
    def test_same_program_same_document_shape(self):
        sim = SimBackend().run(2, _traffic_program, model=SP2).timeline()
        mp = MPBackend().run(2, _traffic_program).timeline()
        sim_doc, mp_doc = sim.to_dict(), mp.to_dict()
        assert sim_doc.keys() == mp_doc.keys()
        for sim_rank, mp_rank in zip(sim_doc["ranks"], mp_doc["ranks"]):
            assert sim_rank.keys() == mp_rank.keys()
            sim_bytes = [
                (s["stage"], s["bytes_sent"], s["bytes_recv"])
                for s in sim_rank["stages"]
            ]
            mp_bytes = [
                (s["stage"], s["bytes_sent"], s["bytes_recv"])
                for s in mp_rank["stages"]
            ]
            assert sim_bytes == mp_bytes

    def test_wall_clock_fields_populated_only_on_real_transports(self):
        sim = SimBackend().run(2, _traffic_program, model=SP2).timeline()
        mp = MPBackend().run(2, _traffic_program).timeline()
        assert all(w == 0.0 for w in sim.wall_times)
        assert all(w > 0.0 for w in mp.wall_times)
        assert all(not p for p in sim.rank_perf)
        assert all("timers" in p for p in mp.rank_perf)


class TestSystemTimeline:
    @pytest.mark.parametrize("backend", ["sim", "mp"])
    def test_pipeline_emits_a_loadable_timeline(self, backend, tmp_path):
        cfg = RunConfig(method="bsbrc", backend=backend, **SMALL)
        result = SortLastSystem(cfg).run()
        assert result.timeline is not None
        assert result.timeline.backend == backend
        assert result.timeline.meta["method"] == "bsbrc"
        path = tmp_path / f"{backend}.json"
        result.timeline.save(path)
        assert RunTimeline.load(path).to_dict() == result.timeline.to_dict()
