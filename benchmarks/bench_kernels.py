"""Micro-benchmarks of the hot kernels under the compositing methods.

These are classic pytest-benchmark measurements (many rounds) of the
pure-numpy building blocks: the over operator, the RLE codec, bounding
rectangle search, wire packing, and one ray-cast.  They are not paper
artifacts but make regressions in the kernels visible.
"""

import numpy as np
import pytest

from repro.compositing.over import over, over_inplace
from repro.compositing.rect import find_bounding_rect
from repro.compositing.rle import rle_decode_mask, rle_encode_mask
from repro.compositing.wire import pack_bsbrc, pack_bslc, unpack_bsbrc
from repro.render.camera import Camera
from repro.render.raycast import render_subvolume
from repro.types import Rect
from repro.volume.datasets import make_dataset

SIZE = 384


@pytest.fixture(scope="module")
def planes():
    rng = np.random.default_rng(42)
    mask = rng.random((SIZE, SIZE)) < 0.25
    opacity = np.where(mask, rng.uniform(0.1, 0.9, (SIZE, SIZE)), 0.0)
    intensity = np.where(mask, rng.uniform(0.1, 1.0, (SIZE, SIZE)), 0.0)
    return intensity, opacity


def test_bench_over_functional(benchmark, planes):
    intensity, opacity = planes
    benchmark(over, intensity, opacity, opacity, intensity)


def test_bench_over_inplace(benchmark, planes):
    intensity, opacity = planes
    acc_i = intensity.copy()
    acc_a = opacity.copy()
    benchmark(over_inplace, intensity, opacity, acc_i, acc_a)


def test_bench_bounding_rect(benchmark, planes):
    intensity, opacity = planes
    rect = benchmark(find_bounding_rect, intensity, opacity)
    assert not rect.is_empty


def test_bench_rle_encode(benchmark, planes):
    intensity, opacity = planes
    mask = (intensity != 0).ravel()
    codes = benchmark(rle_encode_mask, mask)
    assert codes.size > 0


def test_bench_rle_decode(benchmark, planes):
    intensity, _ = planes
    mask = (intensity != 0).ravel()
    codes = rle_encode_mask(mask)
    out = benchmark(rle_decode_mask, codes, mask.size)
    assert out.sum() == mask.sum()


def test_bench_pack_bsbrc(benchmark, planes):
    intensity, opacity = planes
    msg = benchmark(pack_bsbrc, intensity, opacity, Rect.full(SIZE, SIZE))
    assert msg.accounted_bytes > 0


def test_bench_unpack_bsbrc(benchmark, planes):
    intensity, opacity = planes
    msg = pack_bsbrc(intensity, opacity, Rect.full(SIZE, SIZE))
    rect, mask, _, _ = benchmark(unpack_bsbrc, msg.buffer)
    assert not rect.is_empty and mask is not None


def test_bench_pack_bslc(benchmark, planes):
    intensity, opacity = planes
    indices = np.arange(SIZE * SIZE, dtype=np.int64)
    msg = benchmark(pack_bslc, intensity.ravel(), opacity.ravel(), indices)
    assert msg.accounted_bytes > 0


def test_bench_raycast_block(benchmark):
    """One rank's rendering work at paper scale (P=8 block of engine)."""
    volume, transfer = make_dataset("engine_low")
    camera = Camera(
        width=SIZE, height=SIZE, volume_shape=volume.shape, rot_x=20, rot_y=30
    )
    from repro.volume.partition import recursive_bisect

    plan = recursive_bisect(volume.shape, 8)
    image = benchmark.pedantic(
        lambda: render_subvolume(volume, transfer, camera, plan.extent(3)),
        rounds=1,
        iterations=1,
    )
    assert image.nonblank_count() > 0
