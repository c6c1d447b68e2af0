"""The streaming progress plane: bit-exact partial frames, zero accounting.

Locks the ProgressFeed contracts the serving layer depends on:

* every event carries one ``part`` and only that part's pixels: a
  stage event its keep part, bit-identical there to the recovery
  layer's ``CheckpointSnapshot`` image (same emission point, same
  pixels); a tile event its tile, holding the tile's *final* pixels;
* an installed feed changes nothing — pixels, integer byte/message
  counters, and modelled times are identical with and without one;
* coverage is monotone, ends at 1.0, and survives degraded re-runs;
* live feeds are simulator-only, and the ``repro.serve-event/4``
  document carries the part's address and its planes as one base64
  RLE body, round-trips them bit for bit, replays to the one-shot
  frame, and refuses a damaged body.
"""

import base64
import json
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
from repro.compositing.wire import unpack_rle
from repro.errors import ConfigurationError, WireFormatError
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


def _bytes(*planes):
    """The planes' exact bytes: ``np.array_equal`` cannot see a ``-0.0``."""
    return [(plane.dtype, plane.shape, plane.tobytes()) for plane in planes]


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
        """A streamed stage frame IS the checkpoint: both hold the keep
        part's planes, byte for byte."""
        stage_events, store = _checkpointed_stage_events(_cfg())
        for event in stage_events:
            snapshot = store.load(event.rank, event.stage)
            assert snapshot is not None
            for plane in ("intensity", "opacity"):
                ours, stored = getattr(event, plane), getattr(snapshot, plane)
                assert ours.shape == stored.shape
                assert ours.tobytes() == stored.tobytes()

    @pytest.mark.parametrize("num_ranks", [4, 8])
    @pytest.mark.parametrize("method", SCHEDULED)
    def test_stage_planes_hold_only_the_keep_part(self, method, num_ranks):
        """An in-process stage event and the stage's checkpoint each hold
        ``part.num_pixels`` values per plane, and they are equal."""
        stage_events, store = _checkpointed_stage_events(
            _cfg(method=method, num_ranks=num_ranks)
        )
        for event in stage_events:
            part = event.part
            assert event.intensity.size == event.opacity.size == part.num_pixels
            snapshot = store.load(event.rank, event.stage)
            assert snapshot.intensity.size == snapshot.opacity.size == part.num_pixels
            assert np.array_equal(event.intensity, snapshot.intensity)
            assert np.array_equal(event.opacity, snapshot.opacity)

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
        (``bslc``) as their four integers; the planes travel as one
        ``pixels`` string, the RLE body of the part's values in part
        order, and decoding rebuilds the event exactly."""
        feed = ProgressFeed()
        SortLastSystem(_cfg(method=method)).run(progress=feed)
        stages = [e for e in feed.events if e.kind == "stage"]
        assert stages
        for event in stages:
            doc = event.to_dict()
            part = event.part
            assert not {
                "frame_shape", "rect", "part_rect", "part_indices",
                "intensity", "opacity",
            } & set(doc)
            if method == "bsbrc":
                rect = part.rect
                assert doc["part"] == {"rect": [rect.y0, rect.x0, rect.y1, rect.x1]}
                shape = (rect.height, rect.width)
            else:
                assert doc["part"] == {
                    "index": [part.frame_pixels, part.section, part.stride, part.offset]
                }
                assert all(type(v) is int for v in doc["part"]["index"])
                shape = (part.num_pixels,)
            assert isinstance(doc["pixels"], str)
            mask, _, _ = unpack_rle(base64.b64decode(doc["pixels"]), part.num_pixels)
            assert np.array_equal(
                mask, ((event.intensity != 0) | (event.opacity != 0)).ravel()
            )
            back = serve_event_from_dict(doc)
            assert back.intensity.shape == back.opacity.shape == shape
            assert back.to_dict() == doc
            assert _bytes(back.intensity, back.opacity) == _bytes(
                event.intensity, event.opacity
            )

    @pytest.mark.parametrize("num_ranks", [4, 8])
    @pytest.mark.parametrize("method", SCHEDULED + ("tile-routed:rect-rle",))
    def test_documents_round_trip_bit_for_bit(self, method, num_ranks):
        """Every event, sent through ``to_dict -> json -> decode``, is
        the in-process event byte for byte: zero-filled decoding is exact
        because no blank pixel holds a ``-0.0``."""
        feed = ProgressFeed()
        SortLastSystem(_cfg(method=method, num_ranks=num_ranks)).run(progress=feed)
        assert feed.events[-1].kind == "final"
        for event in feed.events:
            back = serve_event_from_dict(json.loads(json.dumps(event.to_dict())))
            assert (back.seq, back.kind, back.rank, back.stage, back.tile) == (
                event.seq, event.kind, event.rank, event.stage, event.tile
            )
            assert back.part.kind == event.part.kind
            assert _bytes(back.intensity, back.opacity) == _bytes(
                event.intensity, event.opacity
            )

    @pytest.mark.parametrize("num_ranks", [4, 8])
    def test_short_last_section_round_trips(self, num_ranks):
        """A 60 px frame ends in a short BSLC section; the index part
        that owns it decodes to its exact pixels, in part order."""
        feed = ProgressFeed()
        cfg = _cfg(method="bslc", num_ranks=num_ranks, image_size=60)
        SortLastSystem(cfg).run(progress=feed)
        tails = [
            e for e in feed.events
            if e.kind == "stage" and e.part.flat()[-1] == e.part.frame_pixels - 1
        ]
        assert tails and tails[0].part.frame_pixels % tails[0].part.section
        for event in tails:
            back = serve_event_from_dict(json.loads(json.dumps(event.to_dict())))
            assert _bytes(back.intensity, back.opacity) == _bytes(
                event.intensity, event.opacity
            )

    @pytest.mark.parametrize("num_ranks", [4, 8])
    @pytest.mark.parametrize("method", SCHEDULED + ("tile-routed:rect-rle",))
    def test_documents_replay_to_the_one_shot_frame(self, method, num_ranks):
        """The ``/4`` documents replay byte-identical to the one-shot
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
                assert _bytes(event.intensity, event.opacity) == _bytes(
                    _on_part(event.part, one_shot.intensity),
                    _on_part(event.part, one_shot.opacity),
                )
        for replayed in (docs, docs[:-1]):
            frame = ProgressiveFrame.replay(replayed, 64, 64)
            assert _bytes(frame.image.intensity, frame.image.opacity) == _bytes(
                one_shot.intensity, one_shot.opacity
            )

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
        spooled 4.93 MB of events when stage frames travelled whole and
        1.58 MB as raw base64 planes of the keep part; as RLE bodies it
        spools about 0.09 MB."""
        spool = str(tmp_path / "spool")
        cfg = RunConfig(
            dataset="engine_high", image_size=96, num_ranks=8, method="bsbrc"
        )
        job_id = submit_job(spool)
        assert serve(spool, cfg, max_jobs=1, idle_timeout=10.0) == 1
        log = os.path.join(spool, "out", f"{job_id}.events.jsonl")
        assert os.path.getsize(log) <= 200_000

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
        shape; there is one decoder, for ``/4``."""
        feed = ProgressFeed()
        SortLastSystem(_cfg(method="bslc")).run(progress=feed)
        doc = feed.events[0].to_dict()
        assert doc["schema"] == SERVE_EVENT_SCHEMA == "repro.serve-event/4"
        doc["schema"] = "repro.serve-event/2"
        with pytest.raises(ConfigurationError, match="serve-event/2"):
            serve_event_from_dict(doc)

    def test_v3_documents_are_refused(self):
        """``/3`` shipped raw base64 planes with dtype and shape; the
        ``/4`` body is the RLE of the part, and there is no second
        decoder."""
        feed = ProgressFeed()
        SortLastSystem(_cfg()).run(progress=feed)
        doc = feed.events[0].to_dict()
        doc["schema"] = "repro.serve-event/3"
        with pytest.raises(ConfigurationError, match="serve-event/3"):
            serve_event_from_dict(doc)

    @pytest.mark.parametrize("key", ["part", "pixels"])
    def test_event_without_part_or_pixels_is_a_wire_error(self, key):
        """An event document missing its part or its pixels is damaged,
        a typed error rather than a bare ``KeyError``."""
        feed = ProgressFeed()
        SortLastSystem(_cfg()).run(progress=feed)
        doc = feed.events[0].to_dict()
        del doc[key]
        with pytest.raises(WireFormatError, match=f"lacks {key}"):
            serve_event_from_dict(doc)


class TestDamagedPixels:
    """A complete line with a damaged ``pixels`` body is refused, never
    decoded into a wrong frame."""

    @staticmethod
    def _docs():
        feed = ProgressFeed()
        SortLastSystem(_cfg(method="bsbrc")).run(progress=feed)
        return [event.to_dict() for event in feed.events]

    @staticmethod
    def _with_body(doc, body: bytes):
        return dict(doc, pixels=base64.b64encode(body).decode("ascii"))

    @pytest.mark.parametrize("cut", [1, 4, 24])
    def test_truncated_body_is_refused(self, cut):
        """Cut mid-quantum (bad padding) or on a quantum boundary (a
        shorter body): both are refused."""
        docs = self._docs()
        docs[-1] = dict(docs[-1], pixels=docs[-1]["pixels"][:-cut])
        with pytest.raises(WireFormatError):
            serve_event_from_dict(docs[-1])
        with pytest.raises(WireFormatError):
            ProgressiveFrame.replay(docs, 64, 64)

    def test_trailing_bytes_are_refused(self):
        docs = self._docs()
        last = docs[-1]
        docs[-1] = self._with_body(last, base64.b64decode(last["pixels"]) + b"\0" * 16)
        with pytest.raises(WireFormatError):
            serve_event_from_dict(docs[-1])
        with pytest.raises(WireFormatError):
            ProgressiveFrame.replay(docs, 64, 64)

    def test_body_for_another_part_is_refused(self):
        """Run codes must cover exactly the part's pixels."""
        docs = self._docs()
        first, last = docs[0], docs[-1]
        assert first["part"] != last["part"]
        with pytest.raises(WireFormatError):
            serve_event_from_dict(dict(last, pixels=first["pixels"]))

    @pytest.mark.parametrize("text", ["@@@@", "QUJD", "QUJDRA="])
    def test_text_that_is_not_a_body_is_refused(self, text):
        with pytest.raises(WireFormatError):
            serve_event_from_dict(dict(self._docs()[-1], pixels=text))
