"""Bit-identity of the batched marcher against the per-step reference.

The whole compositing test pyramid rests on renders being exactly
reproducible, so the production marcher (ray batches + two-level
occupancy-based empty-space skipping + by-rounds accumulation) is pinned
to the original per-step loop bit for bit — not approximately — across
every dataset, viewpoint, subvolume shape, step length and batch size.
"""

import numpy as np
import pytest

from oracles import render_reference
from repro import perf
from repro.render import raycast
from repro.render.camera import Camera
from repro.render.image import SubImage
from repro.render.raycast import RaySetup, render_full, render_subvolume
from repro.types import Extent3, Rect
from repro.volume.datasets import PAPER_DATASETS, make_dataset
from repro.volume.grid import VolumeGrid
from repro.volume.transfer import TransferFunction

SHAPE = (32, 32, 16)


def _identical(a, b):
    return np.array_equal(a.intensity, b.intensity) and np.array_equal(
        a.opacity, b.opacity
    )


def _camera(volume, size=40, rot_x=20.0, rot_y=30.0):
    return Camera(
        width=size, height=size, volume_shape=volume.shape, rot_x=rot_x, rot_y=rot_y
    )


class TestChunkedMatchesReference:
    @pytest.mark.parametrize("dataset", PAPER_DATASETS)
    @pytest.mark.parametrize("batch_cap", [1, 3, 8, 64])
    def test_full_volume(self, dataset, batch_cap, monkeypatch):
        """Caps below a ray's length: every ray marches alone, or a few
        together."""
        volume, transfer = make_dataset(dataset, SHAPE)
        camera = _camera(volume, size=24)
        ref = render_reference(volume, transfer, camera)
        monkeypatch.setattr(raycast, "_BATCH_SAMPLES", batch_cap)
        opt = render_full(volume, transfer, camera)
        assert _identical(ref, opt)

    @pytest.mark.parametrize("shape", [SHAPE, (21, 13, 9)])
    @pytest.mark.parametrize("dataset", [*PAPER_DATASETS, "sphere"])
    def test_steps_and_batch_caps(self, dataset, shape, monkeypatch):
        volume, transfer = make_dataset(dataset, shape)
        default_cap = raycast._BATCH_SAMPLES
        for step in (0.4, 0.6, 1.0, 1.5, 2.5):
            camera = Camera(
                width=30, height=22, volume_shape=volume.shape,
                rot_x=-25.0, rot_y=40.0, rot_z=10.0, step=step,
            )
            ref = render_reference(volume, transfer, camera)
            for cap in (1, 50, default_cap):
                monkeypatch.setattr(raycast, "_BATCH_SAMPLES", cap)
                opt = render_full(volume, transfer, camera)
                assert _identical(ref, opt), f"step {step}, batch cap {cap}"

    @pytest.mark.parametrize("dataset", PAPER_DATASETS)
    def test_subvolume_extents(self, dataset):
        volume, transfer = make_dataset(dataset, SHAPE)
        camera = _camera(volume)
        nx, ny, nz = volume.shape
        extents = [
            Extent3(0, nx // 2, 0, ny, 0, nz),
            Extent3(nx // 2, nx, 0, ny // 2, nz // 3, nz),
            Extent3(1, 2, 1, 2, 1, 2),
            volume.full_extent(),
        ]
        for extent in extents:
            ref = render_reference(volume, transfer, camera, extent)
            opt = render_subvolume(volume, transfer, camera, extent)
            assert _identical(ref, opt), f"extent {extent} diverged"

    @pytest.mark.parametrize("rotation", [(0.0, 0.0), (-35.0, 110.0), (90.0, 45.0)])
    def test_viewpoints(self, rotation):
        volume, transfer = make_dataset("engine_high", SHAPE)
        camera = _camera(volume, rot_x=rotation[0], rot_y=rotation[1])
        ref = render_reference(volume, transfer, camera)
        opt = render_full(volume, transfer, camera)
        assert _identical(ref, opt)

    def test_duck_typed_transfer_without_zero_threshold(self):
        """A classify-only transfer object disables empty-space skipping
        but must still match the reference exactly."""

        class Plain:
            def classify(self, s):
                s = np.asarray(s, dtype=np.float64)
                return s, np.clip(s - 0.1, 0.0, 1.0) * 0.5

        volume = make_dataset("head", SHAPE)[0]
        transfer = Plain()
        camera = _camera(volume)
        ref = render_reference(volume, transfer, camera)
        opt = render_full(volume, transfer, camera)
        assert _identical(ref, opt)

    def test_default_settings_are_exact(self):
        """The documented contract: no knob needs touching for
        bit-identical output."""
        volume, transfer = make_dataset("cube", SHAPE)
        camera = _camera(volume)
        ref = render_reference(volume, transfer, camera)
        opt = render_full(volume, transfer, camera)
        assert _identical(ref, opt)


class TestEarlyTermination:
    def test_exact_termination_is_bit_identical(self):
        """Nothing is retired early: behind an opaque wall a saturated ray
        (transmittance exactly 0) keeps adding +0.0, as the reference
        does."""
        volume = VolumeGrid(data=np.full(SHAPE, 0.9, dtype=np.float32), name="wall")
        transfer = TransferFunction(lo=0.1, hi=0.3, max_alpha=1.0)
        camera = _camera(volume)
        ref = render_reference(volume, transfer, camera)
        opt = render_full(volume, transfer, camera)
        assert _identical(ref, opt)
        assert opt.opacity.max() == 1.0


class TestBatches:
    """Working memory is bounded by the batch cap, not the image size."""

    def _render(self, size, monkeypatch):
        """``(rays, steps)`` of every expansion (span pre-pass included)
        and the counters of one ``render_full``."""
        batches = []
        real_expand = raycast._expand

        def recording_expand(origins, view_dir, step, t_half, first, counts, *stride):
            batches.append((counts.size, int(counts.sum())))
            return real_expand(origins, view_dir, step, t_half, first, counts, *stride)

        monkeypatch.setattr(raycast, "_expand", recording_expand)
        volume, transfer = make_dataset("head", SHAPE)
        with perf.scope() as work:
            render_full(volume, transfer, _camera(volume, size=size))
        return batches, work

    def test_a_large_frame_marches_in_capped_batches(self, monkeypatch):
        cap = raycast._BATCH_SAMPLES
        batches, work = self._render(256, monkeypatch)
        assert all(steps <= cap for _, steps in batches)
        in_span = work.counter("raycast.samples") + work.counter("raycast.samples_skipped")
        assert work.counter("raycast.batches") >= -(-in_span // cap) > 1

    def test_a_ray_longer_than_the_cap_marches_alone(self, monkeypatch):
        monkeypatch.setattr(raycast, "_BATCH_SAMPLES", 7)
        batches, _ = self._render(40, monkeypatch)
        assert any(steps > 7 for _, steps in batches)
        assert all(steps <= 7 or rays == 1 for rays, steps in batches)


class TestOccupancyGrid:
    def test_bound_is_conservative(self):
        """occ at a voxel's block bounds every voxel of the block and its
        full one-block neighbourhood — the empty-space-skip soundness
        invariant, at every level of the pyramid."""
        rng = np.random.default_rng(11)
        data = rng.random((21, 13, 9)).astype(np.float32)
        volume = VolumeGrid(data=data, name="rand")
        for block in (2, 4, 8):
            occ = volume.occupancy_max(block)
            for _ in range(300):
                x, y, z = (int(rng.integers(0, n)) for n in data.shape)
                lo = [max(0, (v // block) * block - block) for v in (x, y, z)]
                hi = [
                    min(n, (v // block) * block + 2 * block)
                    for v, n in zip((x, y, z), data.shape)
                ]
                neighbourhood_max = data[lo[0] : hi[0], lo[1] : hi[1], lo[2] : hi[2]].max()
                assert occ[x // block, y // block, z // block] >= neighbourhood_max

    @pytest.mark.parametrize("shape", [(21, 13, 9), (37, 19, 11), (5, 1, 3)])
    def test_pyramid_levels_equal_the_reshape_max_definition(self, shape):
        """The recorded definition of a level: edge-pad to whole blocks,
        block maximum, 3x3x3 maximum filter.  Pairwise halving must give
        exactly that, on shapes no block size divides and whichever
        level is asked for first."""
        from scipy import ndimage

        def defined(data, block):
            pads = [(0, (-n) % block) for n in data.shape]
            padded = np.pad(data, pads, mode="edge")
            bx, by, bz = (n // block for n in padded.shape)
            coarse = padded.reshape(bx, block, by, block, bz, block).max(axis=(1, 3, 5))
            return ndimage.maximum_filter(coarse, size=3, mode="nearest")

        data = np.random.default_rng(5).random(shape).astype(np.float32)
        for order in ((8, 2, 4), (2, 4, 8)):
            volume = VolumeGrid(data=data, name="rand")
            for block in order:
                assert np.array_equal(volume.occupancy_max(block), defined(data, block))

    def test_cached_per_block_size(self):
        volume = make_dataset("cube", SHAPE)[0]
        assert volume.occupancy_max(8) is volume.occupancy_max(8)
        assert volume.occupancy_max(4) is not volume.occupancy_max(8)

    def test_bad_block_rejected(self):
        from repro.errors import ConfigurationError

        volume = make_dataset("cube", SHAPE)[0]
        for block in (0, 1, 6):
            with pytest.raises(ConfigurationError):
                volume.occupancy_max(block)

    def test_sparse_volume_skips_samples(self):
        volume, transfer = make_dataset("engine_high", SHAPE)
        camera = _camera(volume)
        perf.reset()
        render_full(volume, transfer, camera)
        report = perf.report()["counters"]
        assert report.get("raycast.samples_skipped", 0) > 0

    def test_skip_counter_is_a_per_ray_count(self):
        """``samples_skipped`` counts in-span samples proven empty, so
        with ``samples`` it adds up to the rays' spans — however the rays
        are selected and batched."""
        volume, transfer = make_dataset("engine_high", SHAPE)
        camera = _camera(volume)
        setup = RaySetup(volume, transfer, camera)
        in_span = int((setup.kmax - setup.kmin + 1).sum())
        counts = []
        for band in (40, 14):  # the whole frame at once, then three row bands
            with perf.scope() as work:
                for y in range(0, 40, band):
                    window = Rect(y, 0, y + band, 40)
                    RaySetup(volume, transfer, camera, clip_rect=window).march()
            counts.append(
                (work.counter("raycast.samples"), work.counter("raycast.samples_skipped"))
            )
            assert sum(counts[-1]) == in_span
        assert counts[0] == counts[1] and 0 < counts[0][0] < in_span

    def test_isolated_blob_drops_empty_rays(self):
        """Rays that only cross empty space are retired before sampling,
        and the result still matches the reference exactly."""
        data = np.zeros(SHAPE, dtype=np.float32)
        data[2:6, 2:6, 2:6] = 0.8  # small blob far from most rays
        volume = VolumeGrid(data=data, name="blob")
        transfer = TransferFunction(lo=0.3, hi=0.6)
        camera = _camera(volume)
        perf.reset()
        opt = render_full(volume, transfer, camera)
        assert perf.counter("raycast.empty_rays") > 0
        ref = render_reference(volume, transfer, camera)
        assert _identical(ref, opt)
