"""Setup-once ray casting and the one tile-routed pipeline path.

Three layers of the same claim — *what is marched together never changes
what a ray computes, and when a rank renders never changes what it
composites*:

* :meth:`~repro.render.raycast.RaySetup.march` over the whole footprint,
  an arbitrary clip window, or one tile row at a time reproduces
  ``render_subvolume``'s whole-frame pixels exactly;
* a tile-routed run (every rank renders through ``RankRender``, then
  ``TileRoutedCompositor.run`` composites) leaves every observable —
  pixels, per-rank per-stage counters, modelled clocks, tile events,
  progress events — as ``tests/data/tile_routed_parity.json`` recorded
  it from the render-overlapped path this one replaced (commit
  ``c60a860``, which rendered each tile row band between its pushes);
* the work it does is bounded by the rank count, not by the tile count
  (the deterministic stand-in for a wall-clock ceiling).
"""

import hashlib
import json
import os
from unittest import mock

import numpy as np
import pytest

from oracles import render_reference
from repro import perf
from repro.cluster.progress import ProgressFeed
from repro.pipeline import phases, render_pool
from repro.pipeline.config import RunConfig
from repro.pipeline.render_pool import RenderPool
from repro.pipeline.system import SortLastSystem
from repro.render.camera import Camera
from repro.render.image import SubImage
from repro.render.raycast import RaySetup, render_subvolume
from repro.types import Extent3, Rect
from repro.volume.datasets import make_dataset

SHAPE = (32, 32, 16)
#: Frame that no tested tile size divides.
HEIGHT, WIDTH = 52, 70
PARITY = os.path.join(os.path.dirname(__file__), "data", "tile_routed_parity.json")


class _NoZeroThreshold:
    """Classify-only transfer stand-in: no ``zero_alpha_below``, so no
    occupancy skipping anywhere."""

    def __init__(self, transfer):
        self.classify = transfer.classify


def _scenes():
    """Seeded (label, transfer-wrapper, camera kwargs) cases: axis-aligned
    views (the ``abs(d) <= _EPS`` slab branch), random rotations,
    non-unit steps, no zero threshold."""
    rng = np.random.RandomState(1999)
    cases = [
        ("axis-z", None, dict(rot_x=0.0, rot_y=0.0)),
        ("axis-y-fine", None, dict(rot_x=90.0, rot_y=0.0, step=0.4)),
        ("no-threshold", _NoZeroThreshold, dict(rot_x=20.0, rot_y=30.0)),
    ]
    for n in range(5):
        camera = dict(
            rot_x=float(rng.uniform(-60, 60)),
            rot_y=float(rng.uniform(0, 180)),
            rot_z=float(rng.uniform(-30, 30)),
            step=float(rng.choice([0.6, 1.0, 1.5])),
        )
        cases.append((f"random-{n}", _NoZeroThreshold if n == 3 else None, camera))
    return cases


def _extents(volume):
    nx, ny, nz = volume.shape
    return [volume.full_extent(), Extent3(nx // 2, nx, 0, ny // 2, nz // 4, nz)]


def _scatter_march(image, setup):
    """Scatter ``setup.march()``'s cropped planes into ``image``."""
    intensity, opacity = setup.march()
    assert intensity.shape == opacity.shape == (setup.rect.height, setup.rect.width)
    rows, cols = setup.rect.slices()
    image.intensity[rows, cols] = intensity
    image.opacity[rows, cols] = opacity


@pytest.mark.parametrize(
    "wrap,camera_kw", [c[1:] for c in _scenes()], ids=[c[0] for c in _scenes()]
)
@pytest.mark.parametrize("dataset", ["engine_high", "head"])
class TestSetupThenMarch:
    def _case(self, dataset, wrap, camera_kw):
        volume, transfer = make_dataset(dataset, SHAPE)
        if wrap is not None:
            transfer = wrap(transfer)
        camera = Camera(width=WIDTH, height=HEIGHT, volume_shape=volume.shape, **camera_kw)
        return volume, transfer, camera

    def test_any_selection_equals_the_whole_frame_render(self, dataset, wrap, camera_kw):
        volume, transfer, camera = self._case(dataset, wrap, camera_kw)
        rng = np.random.RandomState(7)
        for extent in _extents(volume):
            whole = render_subvolume(volume, transfer, camera, extent)

            image = SubImage.blank(HEIGHT, WIDTH)
            _scatter_march(image, RaySetup(volume, transfer, camera, extent))
            assert image.max_abs_diff(whole) == 0.0

            y0, y1 = sorted(rng.randint(0, HEIGHT + 1, size=2))
            x0, x1 = sorted(rng.randint(0, WIDTH + 1, size=2))
            window = Rect(int(y0), int(x0), int(y1), int(x1))
            image = SubImage.blank(HEIGHT, WIDTH)
            _scatter_march(image, RaySetup(volume, transfer, camera, extent, clip_rect=window))
            expected = SubImage.blank(HEIGHT, WIDTH)
            rows, cols = window.slices()
            expected.intensity[rows, cols] = whole.intensity[rows, cols]
            expected.opacity[rows, cols] = whole.opacity[rows, cols]
            assert image.max_abs_diff(expected) == 0.0

            for tile in (16, 20, 32):
                image = SubImage.blank(HEIGHT, WIDTH)
                for y in range(0, HEIGHT, tile):
                    band = Rect(y, 0, min(y + tile, HEIGHT), WIDTH)
                    _scatter_march(image, RaySetup(volume, transfer, camera, extent, clip_rect=band))
                assert image.max_abs_diff(whole) == 0.0, f"tile rows of {tile}"

    def test_setup_rect_bounds_every_nonblank_pixel(self, dataset, wrap, camera_kw):
        volume, transfer, camera = self._case(dataset, wrap, camera_kw)
        for extent in _extents(volume):
            whole = render_subvolume(volume, transfer, camera, extent)
            setup = RaySetup(volume, transfer, camera, extent)
            assert setup.rect.contains(whole.bounding_rect())


class TestSetupEdges:
    def test_empty_extent_and_missed_window_have_no_rays(self):
        volume, transfer = make_dataset("engine_low", SHAPE)
        camera = Camera(width=WIDTH, height=HEIGHT, volume_shape=volume.shape)
        for setup in (
            RaySetup(volume, transfer, camera, Extent3(3, 3, 0, 4, 0, 4)),
            RaySetup(volume, transfer, camera, clip_rect=Rect(0, 0, 2, 2)),
        ):
            assert setup.rect.is_empty and setup.rows.size == 0
            with perf.scope() as work:
                intensity, opacity = setup.march()
            assert intensity.size == opacity.size == 0
            assert work.counter("raycast.march_calls") == 0

    def test_reference_setup_matches_chunked_over_bands(self):
        volume, transfer = make_dataset("engine_high", SHAPE)
        camera = Camera(
            width=WIDTH, height=HEIGHT, volume_shape=volume.shape, rot_x=20.0, rot_y=30.0
        )
        whole = render_subvolume(volume, transfer, camera)
        image = SubImage.blank(HEIGHT, WIDTH)
        for y in range(0, HEIGHT, 20):
            band = Rect(y, 0, y + 20, WIDTH)
            part = render_reference(volume, transfer, camera, clip_rect=band)
            inside = band.slices()
            assert part.nonblank_mask()[inside].sum() == part.nonblank_count()
            image.intensity[inside] = part.intensity[inside]
            image.opacity[inside] = part.opacity[inside]
        assert image.max_abs_diff(whole) == 0.0


# ---- the tile-routed path against its recorded observables -------------------
def _cfg(method, backend="sim", **overrides):
    kwargs = dict(
        dataset="engine_low", volume_shape=(24, 24, 12), image_size=72, num_ranks=8,
        rot_x=20.0, rot_y=30.0, method_options={"tile": 16},
    )
    kwargs.update(overrides)
    return RunConfig(method=method, backend=backend, **kwargs)


def _accounting(result, *, clocks: bool):
    """Per-rank per-stage counters (plus the modelled clocks on sim)."""
    ranks = []
    for entry in result.timeline.to_dict()["ranks"]:
        stages = []
        for st in entry["stages"]:
            row = {
                k: st[k]
                for k in ("stage", "bytes_sent", "bytes_recv", "msgs_sent", "msgs_recv", "counters")
            }
            if clocks:
                row.update({k: st[k] for k in ("comp_time", "comm_time", "wait_time")})
            stages.append(row)
        ranks.append([entry["rank"], stages])
    return ranks


def _tile_events(result, *, clocks: bool):
    keys = ("rank", "tile", "pixels") + (("t",) if clocks else ())
    events = [
        [ev[k] for k in keys]
        for ev in result.timeline.events
        if ev.get("event") == "tile_complete"
    ]
    # Off the simulator ranks interleave freely: only the set is fixed.
    return events if clocks else sorted(events)


def _pixel_digest(result):
    digest = hashlib.sha256()
    for image in (result.final_image, *result.subimages):
        digest.update(image.intensity.tobytes())
        digest.update(image.opacity.tobytes())
    return digest.hexdigest()


def _progress_digest(feed):
    digest = hashlib.sha256()
    for e in feed.events:
        # The tile's rect, as recorded when tile events carried it alone.
        rect = e.part.rect if e.kind == "tile" else None
        digest.update(repr((e.seq, e.kind, e.rank, e.tile, rect, e.t, e.coverage)).encode())
        digest.update(e.intensity.tobytes())
        digest.update(e.opacity.tobytes())
    return digest.hexdigest()


def _observed(result, feed=None):
    """What the parity file records of one run: everything on the
    simulator, the integer counters and pixels on mp."""
    clocks = result.timeline.backend == "sim"
    observed = {
        "pixels": _pixel_digest(result),
        "accounting": _accounting(result, clocks=clocks),
        "tile_events": _tile_events(result, clocks=clocks),
    }
    if clocks:
        observed["makespan"] = result.timeline.makespan
        observed["latency"] = {
            key: result.timeline.meta[key]
            for key in ("latency_to_first_pixel", "latency_to_p50_pixels")
        }
    if feed is not None:
        observed["progress"] = _progress_digest(feed)
    # The file's JSON round trip: tuples become lists, floats stay exact.
    return json.loads(json.dumps(observed))


@pytest.fixture(scope="module")
def parity():
    with open(PARITY) as fh:
        return json.load(fh)


class TestTileRoutedParity:
    @pytest.mark.parametrize("codec", ["rect-rle", "rect", "rle", "raw"])
    def test_sim_matches_the_recorded_run(self, codec, parity):
        feed = ProgressFeed()
        result = SortLastSystem(_cfg(f"tile-routed:{codec}")).run(progress=feed)
        assert _observed(result, feed) == parity["sim"][codec]

    def test_mp_matches_the_recorded_run_and_the_sim_counters(self, parity):
        mp = SortLastSystem(_cfg("tile-routed:rect-rle", "mp", num_ranks=4)).run()
        assert _observed(mp) == parity["mp"]["rect-rle"]
        sim = SortLastSystem(_cfg("tile-routed:rect-rle", num_ranks=4)).run()
        assert _pixel_digest(mp) == _pixel_digest(sim)
        assert _accounting(mp, clocks=False) == _accounting(sim, clocks=False)
        assert _tile_events(mp, clocks=False) == _tile_events(sim, clocks=False)


def _same_images(a, b):
    assert a.final_image.max_abs_diff(b.final_image) == 0.0
    for sub_a, sub_b in zip(a.subimages, b.subimages):
        assert sub_a.max_abs_diff(sub_b) == 0.0


# ---- render cache on the tile-routed path -------------------------------------
class TestFusedRenderCache:
    def test_fused_and_split_share_entries(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        fused_cfg = _cfg("tile-routed:rect-rle", num_ranks=4)
        split_cfg = _cfg("binary-swap:raw", num_ranks=4, method_options={})

        with perf.scope() as cold:
            first = SortLastSystem(fused_cfg).run()
        assert cold.counter("pipeline.render_cache_misses") == 4
        assert cold.counter("pipeline.render_cache_hits") == 0
        assert len(list(tmp_path.glob("subimage_*.npz"))) == 4

        with perf.scope() as warm:
            second = SortLastSystem(fused_cfg).run()
        assert warm.counter("pipeline.render_cache_hits") == 4
        assert warm.counter("raycast.setups") == 0
        _same_images(first, second)
        assert _accounting(first, clocks=True) == _accounting(second, clocks=True)

        # A scheduled method hits the entries the tile-routed run stored ...
        with perf.scope() as shared:
            split = SortLastSystem(split_cfg).run()
        assert shared.counter("pipeline.render_cache_hits") == 4
        assert shared.counter("raycast.setups") == 0
        _same_images(first, split)

    def test_cold_run_stores_each_rank_once_and_warm_run_forks_nothing(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cfg = _cfg("tile-routed:rect-rle", num_ranks=4)
        stored = []
        store = phases.store_entry

        def counting_store(path, **arrays):
            stored.append(path)
            store(path, **arrays)

        monkeypatch.setattr(phases, "store_entry", counting_store)
        with mock.patch.object(render_pool, "_SHARED", RenderPool(2)) as cold:
            cold_run = SortLastSystem(cfg).run()
            cold.shutdown()
        assert cold.submitted == 4
        assert len(stored) == len(set(stored)) == 4
        with mock.patch.object(render_pool, "_SHARED", RenderPool(2)) as warm:
            warm_run = SortLastSystem(cfg).run()
        assert warm.submitted == 0 and warm.forks == 0 and warm.pids() == []
        assert len(stored) == 4
        _same_images(cold_run, warm_run)
        assert _accounting(cold_run, clocks=True) == _accounting(warm_run, clocks=True)

    def test_fused_hits_entries_the_split_path_stored(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        split = SortLastSystem(_cfg("bsbrc", num_ranks=4, method_options={})).run()
        with perf.scope() as warm:
            fused = SortLastSystem(_cfg("tile-routed:rect-rle", num_ranks=4)).run()
        assert warm.counter("pipeline.render_cache_hits") == 4
        monkeypatch.setenv("REPRO_CACHE_DIR", "")
        plain = SortLastSystem(_cfg("tile-routed:rect-rle", num_ranks=4)).run()
        _same_images(fused, plain)
        _same_images(fused, split)
        assert _accounting(fused, clocks=True) == _accounting(plain, clocks=True)


# ---- deterministic work-count guard -----------------------------------------
class TestFusedWorkCount:
    """The 192 px, P=16 ``engine_high`` frame of the e2e benchmark: work
    scales with ranks, never with the tile count."""

    RANKS = 16
    SIZE = 192
    TILE = 32

    def _run(self, method, monkeypatch):
        blanks = []
        real_blank = SubImage.blank

        def counting_blank(height, width):
            blanks.append((height, width))
            return real_blank(height, width)

        monkeypatch.setattr(SubImage, "blank", staticmethod(counting_blank))
        cfg = RunConfig(
            method=method, dataset="engine_high", image_size=self.SIZE,
            num_ranks=self.RANKS, rot_x=20.0, rot_y=35.0,
        )
        with perf.scope() as scope:
            result = SortLastSystem(cfg).run()
        monkeypatch.setattr(SubImage, "blank", staticmethod(real_blank))
        full_frames = sum(1 for shape in blanks if shape == (self.SIZE, self.SIZE))
        return result, scope, full_frames

    def test_work_is_per_rank_and_per_tile_row(self, monkeypatch):
        fused, work, fused_frames = self._run("tile-routed:rect-rle", monkeypatch)
        split, base, split_frames = self._run("binary-swap:raw", monkeypatch)
        assert fused.final_image.max_abs_diff(split.final_image) == 0.0

        assert work.counter("raycast.setups") == self.RANKS
        # One whole march per rank that casts a ray (rank 0's block casts
        # none here), in the render pool, whatever the method.
        assert work.counter("raycast.march_calls") == self.RANKS - 1
        assert base.counter("raycast.march_calls") == self.RANKS - 1
        # One rank image each plus the assembled final: the renders
        # themselves allocate only their bounding rects, and nothing
        # frame-sized is made inside the tile loop.
        assert fused_frames == split_frames == self.RANKS + 1
        # Per-ray pure counts: the same whichever method consumes them.
        for name in ("raycast.rays", "raycast.empty_rays", "raycast.samples",
                     "raycast.samples_skipped"):
            assert work.counter(name) == base.counter(name), name
        # The coarse level's verdicts decide blank tiles and so modelled
        # clocks: pinned to the values recorded before the fine level existed.
        assert work.counter("raycast.rays") == 35373
        assert work.counter("raycast.empty_rays") == 22868
        # The fine level is what makes the frame cheap (the deterministic
        # stand-in for the wall clock): under 45 % of the in-span samples
        # reach the interpolator; the coarse level alone let 81 % through.
        sampled = work.counter("raycast.samples")
        assert sampled <= 0.45 * (sampled + work.counter("raycast.samples_skipped"))
        assert base.counter("raycast.setups") == self.RANKS
