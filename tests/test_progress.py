"""The streaming progress plane: bit-exact partial frames, zero accounting.

Locks the ProgressFeed contracts the serving layer depends on:

* every event carries one ``part`` and only that part's pixels: a
  stage event its keep part, bit-identical there to the recovery
  layer's ``CheckpointSnapshot`` image (same emission point, same
  pixels); a tile event its tile, holding the tile's *final* pixels;
* an installed feed changes nothing — pixels, integer byte/message
  counters, and modelled times are identical with and without one;
* coverage is monotone, ends at 1.0, and survives degraded re-runs;
* live feeds are simulator-only, and the ``repro.serve-event/3``
  document carries the part's address and its planes as they are,
  round-trips them bit for bit, and replays to the one-shot frame.
"""

import os
import threading

import numpy as np
import pytest

from repro.cluster.backend import SimBackend
from repro.cluster.faults import FaultPlan, FaultRule
from repro.cluster.progress import (
    SERVE_EVENT_SCHEMA,
    ProgressFeed,
    serve_event_from_dict,
)
from repro.cluster.recovery import MemoryCheckpointStore, StageCheckpointer
from repro.cluster.run_timeline import progress_meta
from repro.compositing.registry import make_compositor
from repro.errors import ConfigurationError
from repro.pipeline.config import RunConfig
from repro.pipeline.phases import build_scene
from repro.pipeline.system import SortLastSystem
from repro.render.raycast import render_subvolume
from repro.serving import ProgressiveFrame, read_events, serve, submit_job


def _cfg(**kw):
    base = dict(
        dataset="sphere",
        image_size=64,
        num_ranks=4,
        method="binary-swap:rle",
        volume_shape=(32, 32, 16),
    )
    base.update(kw)
    return RunConfig(**base)


def _coverages(feed):
    return [event.coverage for event in feed.events]


def _on_part(part, plane):
    """``plane``'s values on ``part``: a rect's block, or an index
    part's values at its flat positions in part order."""
    if part.kind == "rect":
        rows, cols = part.rect.slices()
        return plane[rows, cols]
    return plane.ravel()[part.flat()]


def _checkpointed_stage_events(cfg):
    """Run ``cfg`` with a feed and a checkpointer on every rank."""
    scene = build_scene(cfg)
    compositor = make_compositor(cfg.method)
    store = MemoryCheckpointStore()
    feed = ProgressFeed()
    view_dir = scene.camera.view_dir

    async def program(ctx):
        ctx.install_checkpointer(
            StageCheckpointer(store, ctx.rank, sink=ctx.stats.events)
        )
        ctx.install_progress(feed)
        extent = scene.plan.extent(ctx.rank)
        local = render_subvolume(
            scene.volume, scene.transfer, scene.camera, extent
        )
        await compositor.run(ctx, local, scene.plan, view_dir)

    SimBackend().run(cfg.num_ranks, program, model=cfg.machine)
    stage_events = [e for e in feed.events if e.kind == "stage"]
    assert stage_events, "scheduled engine emitted no stage events"
    return stage_events, store


#: Every scheduled paper method, and radix-k on the rect-RLE wire.
SCHEDULED = ("bs", "bsbr", "bslc", "bsbrc", "radix-k:rect-rle")


class TestStageEvents:
    def test_stage_frames_bit_identical_to_checkpoints(self):
        """A streamed stage frame IS the checkpoint image on its keep
        part, byte for byte."""
        stage_events, store = _checkpointed_stage_events(_cfg())
        for event in stage_events:
            snapshot = store.load(event.rank, event.stage)
            assert snapshot is not None
            assert np.array_equal(
                event.intensity, _on_part(event.part, snapshot.intensity)
            )
            assert np.array_equal(
                event.opacity, _on_part(event.part, snapshot.opacity)
            )

    @pytest.mark.parametrize("num_ranks", [4, 8])
    @pytest.mark.parametrize("method", SCHEDULED)
    def test_stage_planes_hold_only_the_keep_part(self, method, num_ranks):
        """An in-process stage event holds ``part.num_pixels`` values per
        plane, equal to the stage's checkpoint on the part."""
        stage_events, store = _checkpointed_stage_events(
            _cfg(method=method, num_ranks=num_ranks)
        )
        for event in stage_events:
            part = event.part
            assert event.intensity.size == event.opacity.size == part.num_pixels
            snapshot = store.load(event.rank, event.stage)
            assert np.array_equal(
                event.intensity.ravel(), _on_part(part, snapshot.intensity).ravel()
            )
            assert np.array_equal(
                event.opacity.ravel(), _on_part(part, snapshot.opacity).ravel()
            )

    def test_every_rank_and_stage_is_covered(self):
        cfg = _cfg()
        feed = ProgressFeed()
        SortLastSystem(cfg).run(progress=feed)
        stage_events = [e for e in feed.events if e.kind == "stage"]
        # binary swap over 4 ranks: log2(4) = 2 stages per rank.
        assert len(stage_events) == cfg.num_ranks * 2
        seen = {(e.rank, e.ordinal) for e in stage_events}
        assert seen == {(r, k) for r in range(4) for k in range(2)}
        assert all(e.num_stages == 2 for e in stage_events)

    def test_stage_event_part_matches_keep_region(self):
        feed = ProgressFeed()
        SortLastSystem(_cfg()).run(progress=feed)
        for event in feed.events:
            if event.kind == "stage":
                part = event.part
                want = (
                    (part.rect.height, part.rect.width)
                    if part.kind == "rect"
                    else (part.num_pixels,)
                )
                assert event.intensity.shape == event.opacity.shape == want


class TestTileEvents:
    def test_tile_pixels_are_final(self):
        cfg = _cfg(method="tile-routed:rle")
        feed = ProgressFeed()
        result = SortLastSystem(cfg).run(progress=feed)
        tiles = [e for e in feed.events if e.kind == "tile"]
        assert len(tiles) == 4  # 64px frame / 32px tiles
        for event in tiles:
            rect = event.part.rect
            assert np.array_equal(
                event.intensity,
                result.final_image.intensity[rect.y0 : rect.y1, rect.x0 : rect.x1],
            )
            assert np.array_equal(
                event.opacity,
                result.final_image.opacity[rect.y0 : rect.y1, rect.x0 : rect.x1],
            )

    def test_tile_times_match_stats_events(self):
        cfg = _cfg(method="tile-routed:raw")
        feed = ProgressFeed()
        result = SortLastSystem(cfg).run(progress=feed)
        stats_events = sorted(
            (ev["rank"], ev["tile"], ev["t"])
            for ev in result.timeline.events
            if ev.get("event") == "tile_complete"
        )
        feed_events = sorted(
            (e.rank, e.tile, e.t) for e in feed.events if e.kind == "tile"
        )
        assert stats_events == feed_events


class TestNoAccountingImpact:
    @pytest.mark.parametrize("method", ["binary-swap:rle", "tile-routed:rle", "bsbrc"])
    def test_feed_changes_nothing(self, method):
        cfg = _cfg(method=method)
        with_feed = SortLastSystem(cfg).run(progress=ProgressFeed())
        without = SortLastSystem(cfg).run()
        assert np.array_equal(
            with_feed.final_image.intensity, without.final_image.intensity
        )
        assert np.array_equal(
            with_feed.final_image.opacity, without.final_image.opacity
        )
        # Full per-rank timeline: modelled times, byte/msg counters, all.
        assert (
            with_feed.timeline.to_dict()["ranks"]
            == without.timeline.to_dict()["ranks"]
        )
        assert with_feed.timeline.makespan == without.timeline.makespan


class TestCoverage:
    @pytest.mark.parametrize("method", ["binary-swap:rle", "tile-routed:rle"])
    def test_monotone_and_complete(self, method):
        feed = ProgressFeed()
        SortLastSystem(_cfg(method=method)).run(progress=feed)
        covs = _coverages(feed)
        assert all(a <= b for a, b in zip(covs, covs[1:]))
        assert feed.events[-1].kind == "final"
        assert feed.events[-1].coverage == 1.0
        assert feed.closed

    def test_final_event_is_the_display_image(self):
        feed = ProgressFeed()
        result = SortLastSystem(_cfg()).run(progress=feed)
        final = feed.events[-1]
        assert final.outcome == "clean"
        assert not final.degraded
        assert np.array_equal(final.intensity, result.final_image.intensity)
        assert np.array_equal(final.opacity, result.final_image.opacity)

    def test_degraded_rerun_keeps_coverage_monotone(self):
        plan = FaultPlan(rules=(FaultRule(kind="crash", rank=1, stage=1),), seed=3)
        feed = ProgressFeed()
        result = SortLastSystem(_cfg(recovery="degrade")).run(
            fault_plan=plan, progress=feed
        )
        assert result.degraded
        covs = _coverages(feed)
        assert all(a <= b for a, b in zip(covs, covs[1:]))
        final = feed.events[-1]
        assert final.kind == "final"
        assert final.degraded
        assert final.outcome == "degraded"
        assert np.array_equal(final.intensity, result.final_image.intensity)

    def test_resumed_rerun_streams_to_clean_final(self):
        plan = FaultPlan(rules=(FaultRule(kind="crash", rank=1, stage=1),), seed=3)
        feed = ProgressFeed()
        result = SortLastSystem(_cfg(recovery="checkpoint-resume")).run(
            fault_plan=plan, progress=feed
        )
        assert result.recovered and not result.degraded
        covs = _coverages(feed)
        assert all(a <= b for a, b in zip(covs, covs[1:]))
        assert feed.events[-1].outcome == "resumed"
        clean = SortLastSystem(_cfg()).run()
        assert np.array_equal(
            feed.events[-1].intensity, clean.final_image.intensity
        )


class TestFeedMechanics:
    def test_stream_delivers_live_from_another_thread(self):
        feed = ProgressFeed()
        got: list = []

        def consume():
            got.extend(feed.stream())

        consumer = threading.Thread(target=consume)
        consumer.start()
        SortLastSystem(_cfg()).run(progress=feed)
        consumer.join(timeout=30.0)
        assert not consumer.is_alive()
        assert [e.seq for e in got] == [e.seq for e in feed.events]

    def test_stream_timeout_ends_early(self):
        feed = ProgressFeed()
        assert list(feed.stream(timeout=0.01)) == []

    def test_live_feed_rejected_on_mp_backend(self):
        with pytest.raises(ConfigurationError, match="simulator"):
            SortLastSystem(_cfg(backend="mp")).run(progress=ProgressFeed())

    def test_progress_meta_lands_in_timeline(self):
        feed = ProgressFeed()
        result = SortLastSystem(_cfg()).run(progress=feed)
        meta = result.timeline.meta
        assert meta["progress_events"] == len(feed.events)
        assert meta["progress_coverage"] == 1.0
        assert meta["progress_kinds"]["final"] == 1
        assert progress_meta(None) == {}
        # No feed -> no progress keys at all.
        bare = SortLastSystem(_cfg()).run()
        assert "progress_events" not in bare.timeline.meta


class TestServeEventSchema:
    def test_round_trip(self):
        feed = ProgressFeed()
        SortLastSystem(_cfg(method="tile-routed:rle")).run(progress=feed)
        for event in feed.events:
            doc = event.to_dict(job_id="j-1", session="s-1")
            assert doc["schema"] == SERVE_EVENT_SCHEMA
            assert doc["job_id"] == "j-1"
            back = serve_event_from_dict(doc)
            assert back.seq == event.seq
            assert back.kind == event.kind
            assert back.coverage == event.coverage
            assert np.array_equal(back.intensity, event.intensity)
            assert np.array_equal(back.opacity, event.opacity)
            assert back.part.kind == event.part.kind == "rect"
            assert back.part.rect == event.part.rect

    @pytest.mark.parametrize("method", ["bsbrc", "bslc"])
    def test_stage_documents_carry_exactly_the_keep_part(self, method):
        """Rect parts (``bsbrc``) travel as their corners, index parts
        (``bslc``) as their four integers; the planes travel as the
        event holds them, and decoding rebuilds the event exactly."""
        feed = ProgressFeed()
        SortLastSystem(_cfg(method=method)).run(progress=feed)
        stages = [e for e in feed.events if e.kind == "stage"]
        assert stages
        for event in stages:
            doc = event.to_dict()
            part = event.part
            assert not {"frame_shape", "rect", "part_rect", "part_indices"} & set(doc)
            if method == "bsbrc":
                rect = part.rect
                assert doc["part"] == {"rect": [rect.y0, rect.x0, rect.y1, rect.x1]}
                shape = [rect.height, rect.width]
            else:
                assert doc["part"] == {
                    "index": [part.frame_pixels, part.section, part.stride, part.offset]
                }
                assert all(type(v) is int for v in doc["part"]["index"])
                shape = [part.num_pixels]
            assert doc["intensity"]["shape"] == doc["opacity"]["shape"] == shape
            back = serve_event_from_dict(doc)
            assert back.to_dict() == doc
            for got, sent in (
                (back.intensity, event.intensity),
                (back.opacity, event.opacity),
            ):
                assert got.dtype == sent.dtype
                assert np.array_equal(got, sent)

    @pytest.mark.parametrize("num_ranks", [4, 8])
    @pytest.mark.parametrize("method", SCHEDULED + ("tile-routed:rect-rle",))
    def test_documents_replay_to_the_one_shot_frame(self, method, num_ranks):
        """The ``/3`` documents replay bit-identical to the one-shot
        image, also without the ``final`` event; every tile event holds
        the final image on its part."""
        cfg = _cfg(method=method, num_ranks=num_ranks)
        feed = ProgressFeed()
        SortLastSystem(cfg).run(progress=feed)
        one_shot = SortLastSystem(cfg).run().final_image
        docs = [event.to_dict() for event in feed.events]
        assert docs[-1]["kind"] == "final"
        for doc in docs:
            event = serve_event_from_dict(doc)
            assert event.intensity.size == event.part.num_pixels
            if event.kind == "tile":
                assert np.array_equal(
                    event.intensity, _on_part(event.part, one_shot.intensity)
                )
                assert np.array_equal(
                    event.opacity, _on_part(event.part, one_shot.opacity)
                )
        for replayed in (docs, docs[:-1]):
            frame = ProgressiveFrame.replay(replayed, 64, 64)
            assert np.array_equal(frame.image.intensity, one_shot.intensity)
            assert np.array_equal(frame.image.opacity, one_shot.opacity)

    def test_spooled_stage_log_replays_to_the_one_shot_frame(self, tmp_path):
        """After the last exchange the keep parts tile the frame, so the
        stage documents alone — no ``final`` — rebuild the image."""
        spool = str(tmp_path / "spool")
        cfg = _cfg(method="binary-swap:raw")
        job_id = submit_job(spool)
        assert serve(spool, cfg, max_jobs=1, idle_timeout=10.0) == 1
        events = read_events(spool, job_id)
        one_shot = SortLastSystem(cfg).run().final_image
        stages = [doc for doc in events if doc["kind"] == "stage"]
        assert stages and events[-1]["kind"] == "final"
        for docs in (stages, events):
            frame = ProgressiveFrame.replay(docs, 64, 64)
            assert np.array_equal(frame.image.intensity, one_shot.intensity)
            assert np.array_equal(frame.image.opacity, one_shot.opacity)

    def test_event_log_byte_guard(self, tmp_path):
        """Deterministic stand-in for a wall-clock assertion: the e2e
        benchmark's serve job (``engine_high``, 96 px, P=8, ``bsbrc``)
        spooled 4.93 MB of events when stage frames travelled whole."""
        spool = str(tmp_path / "spool")
        cfg = RunConfig(
            dataset="engine_high", image_size=96, num_ranks=8, method="bsbrc"
        )
        job_id = submit_job(spool)
        assert serve(spool, cfg, max_jobs=1, idle_timeout=10.0) == 1
        log = os.path.join(spool, "out", f"{job_id}.events.jsonl")
        assert os.path.getsize(log) <= 1_700_000

    def test_bad_schema_rejected(self):
        with pytest.raises(ConfigurationError, match="serve-event"):
            serve_event_from_dict({"schema": "repro.serve-event/999"})

    def test_whole_frame_v1_documents_are_refused(self):
        """``/1`` stage planes meant something else (the whole frame);
        spools are transient, so there is no second decoder."""
        feed = ProgressFeed()
        SortLastSystem(_cfg()).run(progress=feed)
        doc = feed.events[0].to_dict()
        doc["schema"] = "repro.serve-event/1"
        with pytest.raises(ConfigurationError, match="serve-event/1"):
            serve_event_from_dict(doc)

    def test_v2_documents_are_refused(self):
        """``/2`` addressed stage planes by index arrays beside a frame
        shape; there is one decoder, for ``/3``."""
        feed = ProgressFeed()
        SortLastSystem(_cfg(method="bslc")).run(progress=feed)
        doc = feed.events[0].to_dict()
        assert doc["schema"] == SERVE_EVENT_SCHEMA == "repro.serve-event/3"
        doc["schema"] = "repro.serve-event/2"
        with pytest.raises(ConfigurationError, match="serve-event/2"):
            serve_event_from_dict(doc)
