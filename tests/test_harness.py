"""Tests for the experiment harness (render cache, grids, persistence)."""

import numpy as np
import pytest

from repro import perf
from repro.cache import CACHE_DIR_ENV, cache_dir
from repro.analysis.metrics import MethodMeasurement
from repro.cluster.model import SP2
from repro.errors import ConfigurationError
from repro.experiments.harness import (
    RenderedWorkload,
    clear_workload_cache,
    load_rows,
    rows_from_json,
    rows_to_json,
    run_grid,
    run_method,
    save_rows,
    workload,
)
from repro.pipeline.config import RunConfig
from repro.pipeline.system import SortLastSystem
from repro.render.raycast import render_subvolume
from repro.volume.datasets import make_dataset

SMALL = dict(volume_shape=(32, 32, 16), rotation=(20.0, 30.0, 0.0))


@pytest.fixture(scope="module")
def small_workload():
    return RenderedWorkload(
        dataset="engine_low", image_size=48, max_ranks=16, **SMALL
    )


class TestRenderedWorkload:
    def test_blocks_cropped(self, small_workload):
        for rect, block_i, block_a in small_workload.blocks:
            if rect.is_empty:
                continue
            assert block_i.shape == (rect.height, rect.width)
            assert block_a.shape == block_i.shape

    @pytest.mark.parametrize("num_ranks", [2, 4, 8, 16])
    def test_assembly_equals_direct_render(self, small_workload, num_ranks):
        """The cached-blocks fast path must reproduce direct rendering."""
        volume, transfer = make_dataset("engine_low", SMALL["volume_shape"])
        plan = small_workload.plan_for(num_ranks)
        assembled = small_workload.subimages_for(num_ranks)
        for rank in range(num_ranks):
            direct = render_subvolume(
                volume, transfer, small_workload.camera, plan.extent(rank)
            )
            assert assembled[rank].max_abs_diff(direct) < 1e-12

    def test_rejects_larger_p(self, small_workload):
        with pytest.raises(ConfigurationError):
            small_workload.subimages_for(32)

    def test_rejects_non_power_of_two(self, small_workload):
        with pytest.raises(ConfigurationError):
            small_workload.subimages_for(3)

    def test_rejects_bad_max_ranks(self):
        with pytest.raises(ConfigurationError):
            RenderedWorkload(dataset="sphere", image_size=32, max_ranks=6)

    def test_plan_cache_stable(self, small_workload):
        assert small_workload.plan_for(4) is small_workload.plan_for(4)


class TestWorkloadCache:
    def test_cache_returns_same_object(self):
        clear_workload_cache()
        a = workload("sphere", 32, max_ranks=4, volume_shape=(16, 16, 16))
        b = workload("sphere", 32, max_ranks=4, volume_shape=(16, 16, 16))
        assert a is b

    def test_list_volume_shape_hits_the_tuple_entry(self):
        """A shape read from JSON arrives as a list; it keys the memo
        like the tuple it normalises to."""
        clear_workload_cache()
        a = workload("sphere", 32, max_ranks=4, volume_shape=(16, 16, 16))
        b = workload("sphere", 32, max_ranks=4, volume_shape=[16, 16, 16])
        assert a is b

    def test_cache_distinguishes_rotation(self):
        clear_workload_cache()
        a = workload("sphere", 32, max_ranks=4, volume_shape=(16, 16, 16))
        b = workload(
            "sphere", 32, max_ranks=4, volume_shape=(16, 16, 16),
            rotation=(10.0, 0.0, 0.0),
        )
        assert a is not b

    def test_clear(self):
        a = workload("sphere", 32, max_ranks=4, volume_shape=(16, 16, 16))
        clear_workload_cache()
        b = workload("sphere", 32, max_ranks=4, volume_shape=(16, 16, 16))
        assert a is not b


class TestDiskCache:
    """The harness renders through the pipeline's per-rank render cache:
    one ``subimage_*.npz`` entry per block under ``REPRO_CACHE_DIR``."""

    KW = dict(dataset="engine_low", image_size=48, max_ranks=4, **SMALL)

    @pytest.fixture
    def cache_root(self, monkeypatch, tmp_path):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        return tmp_path

    def test_off_by_default(self, monkeypatch):
        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        assert cache_dir() is None
        monkeypatch.setenv(CACHE_DIR_ENV, "   ")
        assert cache_dir() is None

    def test_env_var_enables(self, monkeypatch, tmp_path):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        assert cache_dir() == str(tmp_path)

    def _blocks_equal(self, a, b):
        assert len(a.blocks) == len(b.blocks)
        for (ra, ia, aa), (rb, ib, ab) in zip(a.blocks, b.blocks):
            assert ra == rb
            if not ra.is_empty:
                assert np.array_equal(ia, ib)
                assert np.array_equal(aa, ab)

    def test_hit_returns_identical_blocks(self, cache_root):
        perf.reset()
        cold = RenderedWorkload(**self.KW)
        assert perf.counter("pipeline.render_cache_misses") == 4
        assert perf.counter("pipeline.render_cache_hits") == 0
        assert len(list(cache_root.glob("subimage_*.npz"))) == 4
        warm = RenderedWorkload(**self.KW)
        assert perf.counter("pipeline.render_cache_hits") == 4
        assert perf.counter("pipeline.render_cache_misses") == 4
        self._blocks_equal(cold, warm)

    def test_warm_workload_composites_like_cold(self, cache_root):
        cold = RenderedWorkload(**self.KW)
        warm = RenderedWorkload(**self.KW)
        for rank, (a, b) in enumerate(
            zip(cold.subimages_for(4), warm.subimages_for(4))
        ):
            assert a.max_abs_diff(b) == 0.0, f"rank {rank} differs"

    def test_key_distinguishes_parameters(self, cache_root):
        RenderedWorkload(**self.KW)
        perf.reset()
        other = dict(self.KW, image_size=56)
        RenderedWorkload(**other)
        assert perf.counter("pipeline.render_cache_hits") == 0
        assert perf.counter("pipeline.render_cache_misses") == 4

    def test_corrupt_entry_is_a_graceful_miss(self, cache_root):
        RenderedWorkload(**self.KW)
        entries = sorted(cache_root.glob("subimage_*.npz"))
        assert len(entries) == 4
        entries[0].write_bytes(b"not an npz archive")
        perf.reset()
        again = RenderedWorkload(**self.KW)
        assert perf.counter("pipeline.render_cache_misses") == 1
        assert perf.counter("pipeline.render_cache_hits") == 3
        perf.reset()
        fresh = RenderedWorkload(**self.KW)  # the damaged entry was restored
        assert perf.counter("pipeline.render_cache_hits") == 4
        self._blocks_equal(again, fresh)

    def test_env_var_used_when_no_explicit_dir(self, cache_root):
        perf.reset()
        RenderedWorkload(**self.KW)
        assert perf.counter("pipeline.render_cache_misses") == 4
        assert len(list(cache_root.glob("subimage_*.npz"))) == 4
        assert not list(cache_root.glob("workload_*.npz"))

    def test_pipeline_run_hits_the_harness_renders(self, cache_root):
        """A harness workload and a pipeline run of the same scene share
        the per-rank entries: the run renders nothing."""
        shape = (16, 16, 16)
        RenderedWorkload(dataset="sphere", image_size=48, max_ranks=4, volume_shape=shape)
        cfg = RunConfig(dataset="sphere", image_size=48, num_ranks=4, volume_shape=shape)
        with perf.scope() as registry:
            SortLastSystem(cfg).run()
        assert registry.counter("pipeline.render_cache_hits") == 4
        assert registry.counter("pipeline.render_cache_misses") == 0


class TestRunMethodAndGrid:
    def test_run_method_row(self, small_workload):
        row, run = run_method(small_workload, "bsbrc", 8, machine=SP2)
        assert row.method == "bsbrc"
        assert row.dataset == "engine_low"
        assert row.num_ranks == 8
        assert row.t_total > 0
        assert row.mmax_bytes == run.stats.mmax_bytes

    def test_grid_complete(self):
        rows = run_grid(
            ["engine_low", "cube"],
            48,
            [2, 4],
            ["bs", "bsbrc"],
            volume_shape=SMALL["volume_shape"],
            max_ranks=4,
        )
        assert len(rows) == 2 * 2 * 2
        keys = {(r.dataset, r.num_ranks, r.method) for r in rows}
        assert ("cube", 4, "bsbrc") in keys

    def test_grid_deterministic(self):
        kwargs = dict(volume_shape=SMALL["volume_shape"], max_ranks=4)
        rows_a = run_grid(["engine_low"], 48, [4], ["bsbrc"], **kwargs)
        rows_b = run_grid(["engine_low"], 48, [4], ["bsbrc"], **kwargs)
        assert rows_a == rows_b


class TestPersistence:
    def test_json_roundtrip(self):
        rows = [
            MethodMeasurement(
                method="bs", dataset="cube", image_size=384, num_ranks=8,
                t_comp=0.1, t_comm=0.02, mmax_bytes=1000, makespan=0.12,
                bytes_total=5000, pixels_composited=10, pixels_encoded=0,
            )
        ]
        assert rows_from_json(rows_to_json(rows)) == rows

    def test_file_roundtrip(self, tmp_path):
        rows = [
            MethodMeasurement(
                method="bslc", dataset="head", image_size=768, num_ranks=2,
                t_comp=0.3, t_comm=0.01, mmax_bytes=77, makespan=0.31,
                bytes_total=100, pixels_composited=5, pixels_encoded=9,
            )
        ]
        path = tmp_path / "rows.json"
        save_rows(rows, path)
        assert load_rows(path) == rows
