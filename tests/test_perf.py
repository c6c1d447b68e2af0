"""Tests for the perf counter/timer layer."""

import json
import time

import pytest

from repro import perf


@pytest.fixture(autouse=True)
def _clean_registry():
    perf.reset()
    yield
    perf.reset()


class TestCounters:
    def test_incr_defaults_to_one(self):
        perf.incr("a")
        perf.incr("a")
        assert perf.counter("a") == 2

    def test_incr_amount(self):
        perf.incr("bytes", 100)
        perf.incr("bytes", 23)
        assert perf.counter("bytes") == 123

    def test_unknown_counter_is_zero(self):
        assert perf.counter("never-bumped") == 0

    def test_reset_zeroes(self):
        perf.incr("a", 5)
        perf.reset()
        assert perf.counter("a") == 0
        assert perf.report() == {"counters": {}, "timers": {}}


class TestTimers:
    def test_timer_accumulates_wall_cpu_calls(self):
        for _ in range(3):
            with perf.timer("work"):
                time.sleep(0.002)
        row = perf.report()["timers"]["work"]
        assert row["calls"] == 3
        assert row["wall_s"] >= 3 * 0.002
        assert row["cpu_s"] >= 0.0

    def test_timer_records_on_exception(self):
        with pytest.raises(ValueError):
            with perf.timer("boom"):
                raise ValueError("x")
        assert perf.report()["timers"]["boom"]["calls"] == 1


class TestReport:
    def test_report_is_json_serializable(self):
        perf.incr("rays", 1024)
        with perf.timer("render"):
            pass
        payload = json.dumps(perf.report())
        assert "rays" in payload and "render" in payload

    def test_report_snapshot_is_detached(self):
        perf.incr("a")
        snap = perf.report()
        perf.incr("a")
        assert snap["counters"]["a"] == 1

    def test_format_report_empty(self):
        assert perf.format_report() == "perf counters: (empty)"

    def test_format_report_lists_entries(self):
        perf.incr("rle.codes", 42)
        with perf.timer("render"):
            pass
        text = perf.format_report()
        assert "rle.codes" in text
        assert "42" in text
        assert "render" in text
        assert "calls 1" in text


class TestScoping:
    def test_scope_makes_a_fresh_registry(self):
        perf.incr("outer", 5)
        with perf.scope() as inner:
            assert perf.counter("outer") == 0
            perf.incr("inner", 3)
            assert perf.counter("inner") == 3
        assert perf.counter("inner") == 0
        assert perf.counter("outer") == 5
        assert inner.counter("inner") == 3

    def test_scope_accepts_an_existing_registry(self):
        registry = perf.PerfRegistry()
        registry.incr("seeded", 1)
        with perf.scope(registry) as target:
            assert target is registry
            perf.incr("seeded", 1)
        assert registry.counter("seeded") == 2

    def test_scopes_nest(self):
        with perf.scope() as a:
            perf.incr("x")
            with perf.scope() as b:
                perf.incr("x", 10)
            perf.incr("x")
        assert a.counter("x") == 2
        assert b.counter("x") == 10

    def test_current_targets_the_default_without_a_scope(self):
        assert perf.current() is perf.current()
        perf.incr("d")
        assert perf.current().counter("d") == 1

    def test_scope_restores_after_exception(self):
        with pytest.raises(ValueError):
            with perf.scope():
                raise ValueError("x")
        perf.incr("after")
        assert perf.counter("after") == 1

    def test_threads_scope_independently(self):
        import threading

        results = {}

        def worker(name, amount):
            with perf.scope() as registry:
                for _ in range(amount):
                    perf.incr("ticks")
                results[name] = registry.counter("ticks")

        threads = [
            threading.Thread(target=worker, args=("a", 100)),
            threading.Thread(target=worker, args=("b", 7)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert results == {"a": 100, "b": 7}
        assert perf.counter("ticks") == 0  # nothing leaked to the default

    def test_timer_and_report_respect_the_scope(self):
        with perf.scope() as inner:
            with perf.timer("scoped"):
                pass
        assert "scoped" in inner.report()["timers"]
        assert perf.report()["timers"] == {}


class TestInstrumentation:
    def test_rle_codecs_count(self):
        import numpy as np

        from repro.compositing.rle import rle_decode_mask, rle_encode_mask

        mask = np.zeros(64, dtype=bool)
        mask[10:20] = True
        codes = rle_encode_mask(mask)
        rle_decode_mask(codes, mask.size)
        counters = perf.report()["counters"]
        assert counters["rle.encode_calls"] == 1
        assert counters["rle.decode_calls"] == 1
        assert counters["rle.codes"] == codes.size

    def test_raycast_counts_samples(self):
        from repro.render.camera import Camera
        from repro.render.raycast import render_full
        from repro.volume.datasets import make_dataset

        volume, transfer = make_dataset("head", (24, 24, 12))
        camera = Camera(
            width=24, height=24, volume_shape=volume.shape, rot_x=20.0, rot_y=30.0
        )
        render_full(volume, transfer, camera)
        counters = perf.report()["counters"]
        assert counters.get("raycast.batches", 0) > 0
        assert counters.get("raycast.samples", 0) > 0
