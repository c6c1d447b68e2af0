"""LRU bound for the on-disk render cache (``REPRO_CACHE_MAX_BYTES``).

Covers the knob parser, eviction order (oldest mtime first, hits
protect entries), the just-stored exemption, non-entry files being left
alone, and the pipeline integration: a bounded cache dir stays under
its cap across renders while the render results stay correct.
"""

import os

import numpy as np
import pytest

from repro import perf
from repro import cache
from repro.cache import (
    CACHE_LIMIT_ENV,
    cache_budget,
    enforce_cache_budget,
    entry_path,
    load_entry,
    parse_size,
    store_entry,
    touch,
)
from repro.pipeline.config import RunConfig
from repro.pipeline.system import SortLastSystem


def _entry(root, name, size, mtime):
    path = os.path.join(root, name)
    with open(path, "wb") as fh:
        fh.write(b"\0" * size)
    os.utime(path, (mtime, mtime))
    return path


class TestParseSize:
    @pytest.mark.parametrize(
        "text,want",
        [
            ("1048576", 1048576),
            ("512k", 512 * 1024),
            ("2M", 2 * 1024**2),
            ("1g", 1024**3),
            ("1.5k", 1536),
            ("", None),
            ("  ", None),
            ("banana", None),
            ("0", None),
            ("-5", None),
        ],
    )
    def test_cases(self, text, want):
        assert parse_size(text) == want

    def test_budget_reads_the_env(self, monkeypatch):
        monkeypatch.setenv(CACHE_LIMIT_ENV, "4k")
        assert cache_budget() == 4096
        monkeypatch.delenv(CACHE_LIMIT_ENV)
        assert cache_budget() is None


class TestEviction:
    def test_evicts_oldest_first_until_under_budget(self, tmp_path):
        root = str(tmp_path)
        old = _entry(root, "old.npz", 100, 1000.0)
        mid = _entry(root, "mid.npz", 100, 2000.0)
        new = _entry(root, "new.npz", 100, 3000.0)
        evicted = enforce_cache_budget(root, max_bytes=200)
        assert evicted == [old]
        assert not os.path.exists(old)
        assert os.path.exists(mid) and os.path.exists(new)
        # Tighter cap takes the next-oldest too.
        assert enforce_cache_budget(root, max_bytes=100) == [mid]

    def test_touch_on_hit_protects_an_entry(self, tmp_path):
        """A cache *hit* bumps recency: the re-read entry survives and a
        never-read newer entry goes instead — true LRU, not FIFO."""
        root = str(tmp_path)
        hit = _entry(root, "hit.npz", 100, 1000.0)
        cold = _entry(root, "cold.npz", 100, 2000.0)
        touch(hit)  # simulated read: now newer than `cold`
        assert enforce_cache_budget(root, max_bytes=100) == [cold]
        assert os.path.exists(hit)

    def test_keep_exempts_the_just_stored_entry(self, tmp_path):
        root = str(tmp_path)
        older = _entry(root, "older.npz", 100, 1000.0)
        stored = _entry(root, "stored.npz", 300, 500.0)  # oldest AND biggest
        evicted = enforce_cache_budget(root, max_bytes=250, keep=stored)
        assert stored not in evicted
        assert os.path.exists(stored)
        assert older in evicted

    def test_only_npz_entries_are_candidates(self, tmp_path):
        root = str(tmp_path)
        ckpt = _entry(root, "ckpt-run-r0-s1.pkl", 10_000, 100.0)
        note = _entry(root, "README.txt", 10_000, 100.0)
        entry = _entry(root, "entry.npz", 100, 200.0)
        assert enforce_cache_budget(root, max_bytes=50) == [entry]
        assert os.path.exists(ckpt) and os.path.exists(note)

    def test_no_budget_means_no_eviction(self, tmp_path, monkeypatch):
        root = str(tmp_path)
        _entry(root, "a.npz", 1000, 100.0)
        monkeypatch.delenv(CACHE_LIMIT_ENV, raising=False)
        assert enforce_cache_budget(root) == []
        monkeypatch.setenv(CACHE_LIMIT_ENV, "not-a-size")
        assert enforce_cache_budget(root) == []

    def test_missing_root_is_a_noop(self, tmp_path):
        assert enforce_cache_budget(str(tmp_path / "absent"), max_bytes=1) == []

    def test_evictions_are_counted(self, tmp_path):
        root = str(tmp_path)
        _entry(root, "a.npz", 100, 100.0)
        _entry(root, "b.npz", 100, 200.0)
        with perf.scope() as registry:
            enforce_cache_budget(root, max_bytes=50)
        assert registry.counter("cache.evictions") == 2


class TestKeyedStore:
    def test_round_trip_and_graceful_misses(self, tmp_path, monkeypatch):
        monkeypatch.delenv(cache.CACHE_DIR_ENV, raising=False)
        assert entry_path("subimage", (1, "k")) is None  # caching off
        path = entry_path("subimage", (1, "k"), root=str(tmp_path))
        assert path == entry_path("subimage", (1, "k"), root=str(tmp_path))
        assert path != entry_path("subimage", (2, "k"), root=str(tmp_path))
        assert load_entry(path) is None
        store_entry(path, a=np.arange(4), b=np.ones((2, 2)))
        loaded = load_entry(path)
        assert sorted(loaded) == ["a", "b"] and np.array_equal(loaded["a"], np.arange(4))
        with open(path, "wb") as fh:
            fh.write(b"not an npz archive")
        assert load_entry(path) is None

    def test_interleaved_stores_of_one_key_leave_a_loadable_entry(
        self, tmp_path, monkeypatch
    ):
        """Process B stores the key while process A is halfway through
        writing its temp file: with per-process temp names neither
        writes through the other's file, and the entry stays whole."""
        path = entry_path("workload", ("shared",), root=str(tmp_path))
        ours, theirs = np.random.default_rng(7).random((2, 256))
        real_savez = np.savez_compressed
        pids = iter((101, 202))

        def savez_a_then_b_midway(tmp, **arrays):
            monkeypatch.setattr(cache.np, "savez_compressed", real_savez)
            real_savez(tmp, **arrays)
            with open(tmp, "rb") as fh:
                whole = fh.read()
            with open(tmp, "wb") as fh:
                fh.write(whole[: len(whole) // 2])
                fh.flush()
                store_entry(path, data=theirs)  # process B, start to finish
                fh.write(whole[len(whole) // 2 :])

        monkeypatch.setattr(cache.os, "getpid", lambda: next(pids))
        monkeypatch.setattr(cache.np, "savez_compressed", savez_a_then_b_midway)
        store_entry(path, data=ours)  # process A
        assert np.array_equal(load_entry(path)["data"], ours)
        assert os.listdir(tmp_path) == [os.path.basename(path)]  # no temp litter


class TestPipelineIntegration:
    def test_bounded_cache_stays_capped_and_results_stay_right(
        self, tmp_path, monkeypatch
    ):
        cache_dir = str(tmp_path / "cache")
        os.makedirs(cache_dir)
        monkeypatch.setenv("REPRO_CACHE_DIR", cache_dir)
        monkeypatch.setenv(CACHE_LIMIT_ENV, "64k")

        def run(rot_y):
            cfg = RunConfig(
                dataset="sphere", image_size=64, num_ranks=4,
                method="bsbrc", volume_shape=(32, 32, 16), rot_y=rot_y,
            )
            return SortLastSystem(cfg).run()

        results = [run(rot) for rot in (0.0, 15.0, 30.0, 45.0)]
        sizes = [
            os.path.getsize(os.path.join(cache_dir, name))
            for name in os.listdir(cache_dir)
            if name.endswith(".npz")
        ]
        assert sum(sizes) <= 64 * 1024
        # A capped (partially evicted) cache never changes pixels.
        monkeypatch.delenv("REPRO_CACHE_DIR")
        fresh = run(45.0)
        assert np.array_equal(
            results[-1].final_image.intensity, fresh.final_image.intensity
        )
