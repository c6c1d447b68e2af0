"""The run record's ``repro.run-timeline/1`` document: the same JSON from
every backend, round-trippable, and pinned byte for byte on the simulator."""

import hashlib
import json

import pytest

from repro.cluster.backend import MPBackend, SimBackend
from repro.cluster.faults import FaultPlan, FaultRule
from repro.cluster.model import SP2
from repro.cluster.progress import ProgressFeed
from repro.cluster.stats import TIMELINE_SCHEMA, RunResult
from repro.errors import ConfigurationError
from repro.pipeline.config import RunConfig
from repro.pipeline.system import SortLastSystem

SMALL = dict(dataset="sphere", volume_shape=(16, 16, 16), image_size=24, num_ranks=2)


async def _traffic_program(ctx):
    ctx.begin_stage(0)
    await ctx.sendrecv(ctx.rank ^ 1, b"z" * (10 + ctx.rank), tag=1)
    await ctx.charge_encode(33)
    return ctx.rank


def _sim_timeline(**meta) -> RunResult:
    record = SimBackend().run(2, _traffic_program, model=SP2, trace=True)
    record.meta = meta
    return record


class TestRoundTrip:
    def test_json_roundtrip_preserves_everything(self):
        timeline = _sim_timeline(dataset="unit", purpose="roundtrip")
        clone = RunResult.from_json(timeline.to_json())
        assert clone.to_dict() == timeline.to_dict()
        assert clone.backend == "sim" and clone.clock == "modelled"
        assert clone.meta == {"dataset": "unit", "purpose": "roundtrip"}
        assert len(clone.trace_events) == len(timeline.trace_events) > 0

    def test_trace_lists_every_simulator_event(self):
        """The document's ``trace`` is the raw event list, four plain
        fields per event, in the order the simulator recorded them."""
        timeline = _sim_timeline()
        trace = json.loads(timeline.to_json())["trace"]
        assert trace == [
            {"time": e.time, "rank": e.rank, "kind": e.kind, "detail": e.detail}
            for e in timeline.trace_events
        ]
        assert {e["kind"] for e in trace} >= {"compute", "post"}

    def test_save_load(self, tmp_path):
        path = tmp_path / "timeline.json"
        timeline = _sim_timeline()
        timeline.save(path)
        loaded = RunResult.load(path)
        assert loaded.to_dict() == timeline.to_dict()
        # And the on-disk document is plain JSON with the schema marker.
        raw = json.loads(path.read_text())
        assert raw["schema"] == TIMELINE_SCHEMA

    def test_unknown_schema_rejected(self):
        data = _sim_timeline().to_dict()
        data["schema"] = "repro.run-timeline/999"
        with pytest.raises(ConfigurationError, match="schema"):
            RunResult.from_dict(data)


class TestBackendUniformity:
    def test_same_program_same_document_shape(self):
        sim = SimBackend().run(2, _traffic_program, model=SP2)
        mp = MPBackend().run(2, _traffic_program)
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
        sim = SimBackend().run(2, _traffic_program, model=SP2)
        mp = MPBackend().run(2, _traffic_program)
        assert sim.wall_times == [0.0, 0.0] and sim.rank_perf == [{}, {}]
        assert len(mp.wall_times) == 2 and all(w > 0.0 for w in mp.wall_times)
        assert len(mp.rank_perf) == 2 and all("timers" in p for p in mp.rank_perf)


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
        assert RunResult.load(path).to_dict() == result.timeline.to_dict()

    def test_compositing_stats_are_the_record_without_the_gather(self):
        result = SortLastSystem(RunConfig(method="bsbrc", **SMALL)).run()
        record, stats = result.timeline, result.compositing.stats
        gather = max(record.rank_stats[0].stages)
        assert gather not in stats.rank_stats[0].stages
        for full, view in zip(record.rank_stats, stats.rank_stats):
            assert view.stages == {k: b for k, b in full.stages.items() if k != gather}
        assert stats.makespan == max(rs.elapsed_time for rs in stats.rank_stats)
        assert stats.meta == record.meta and stats.events == record.events
        assert record.returns == [] and stats.returns == []


# ---- the documents pinned byte for byte ----------------------------------
def _pinned_config(method: str, recovery: str = "degrade", backend: str = "sim") -> RunConfig:
    return RunConfig(
        method=method, image_size=64, num_ranks=8, volume_shape=(32, 32, 32),
        recovery=recovery, backend=backend,
    )


def _crash(**where) -> FaultPlan:
    return FaultPlan(rules=(FaultRule(kind="crash", rank=1, **where),), seed=3)


#: sha256 of ``SystemResult.timeline.to_json()`` per run, recorded while
#: the run record and the exported document were still separate classes.
PINNED_DOCUMENTS = {
    "bsbrc-trace": (
        lambda: SortLastSystem(_pinned_config("bsbrc")).run(trace=True),
        "53f83a3db719601e34a5112858bb80a1bee0915081bf95bf4f49f261e428c0b6",
    ),
    "tile-routed-feed": (
        lambda: SortLastSystem(_pinned_config("tile-routed:rect-rle")).run(
            progress=ProgressFeed()
        ),
        "86909c02b3d784a5d1f05dfe2c393b571e1a7852b1d21a2285f8a6eb716c28a0",
    ),
    "render-crash-degrade": (
        lambda: SortLastSystem(_pinned_config("bsbrc")).run(
            fault_plan=_crash(phase="render")
        ),
        "6e1a8ee8e66bd0c03bf156850a7901c1c3e43d2cb657429e86b7d81732abcf43",
    ),
    "stage1-crash-checkpoint-resume": (
        lambda: SortLastSystem(_pinned_config("bsbrc", "checkpoint-resume")).run(
            fault_plan=_crash(stage=1)
        ),
        "8d1c5debf6e109932a9a55bcc5d20b597bd56b63c8486e964d87d3f399efafb5",
    ),
}


class TestPinnedDocuments:
    @pytest.mark.parametrize("name", sorted(PINNED_DOCUMENTS))
    def test_sim_document_is_byte_identical(self, name):
        run, digest = PINNED_DOCUMENTS[name]
        doc = run().timeline.to_json()
        assert hashlib.sha256(doc.encode()).hexdigest() == digest
        assert RunResult.from_json(doc).to_json() == doc

    def test_mp_document_keys_and_integer_fields(self):
        result = SortLastSystem(_pinned_config("bsbrc", backend="mp")).run()
        doc = json.loads(result.timeline.to_json())
        assert list(doc) == [
            "schema", "backend", "clock", "num_ranks", "makespan", "meta",
            "events", "ranks", "trace",
        ]
        assert list(doc["meta"]) == [
            "dataset", "method", "num_ranks", "image_size", "machine", "topology",
            "renderer", "degraded", "recovered", "outcome", "failed_ranks",
        ]
        for rank in doc["ranks"]:
            assert list(rank) == ["rank", "wall_time", "perf", "stages"]
            for stage in rank["stages"]:
                assert list(stage) == [
                    "stage", "comp_time", "comm_time", "wait_time", "bytes_sent",
                    "bytes_recv", "msgs_sent", "msgs_recv", "counters",
                ]
        ints = [
            [r["rank"], s["stage"], s["bytes_sent"], s["bytes_recv"],
             s["msgs_sent"], s["msgs_recv"], s["counters"]]
            for r in doc["ranks"] for s in r["stages"]
        ]
        ints.append([doc["num_ranks"], len(doc["events"]), len(doc["trace"])])
        assert hashlib.sha256(json.dumps(ints).encode()).hexdigest() == (
            "e07bbbf401d969026b28539820004ec8a094c055b6d0f4a5c222a353d4163e1f"
        )
        assert RunResult.from_dict(doc).to_dict() == doc
