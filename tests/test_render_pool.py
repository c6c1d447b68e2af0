"""The simulator's render pool: same frame, same counts, any worker count.

Rendering in forked workers while the engine composites may change
nothing observable: pixels, per-rank per-stage byte/message counters,
modelled clocks and the ``perf`` counts of the run are those of the
inline render (W=0), on every method, rank count, recovery re-run and
render-cache state.  Failures follow from a render being a pure
function: a lost worker's tasks re-run inline, a task's own error
surfaces typed, abandoned tasks are cancelled, and no worker outlives
the process that forked it.
"""

import os
import select
import signal
import subprocess
import sys
import textwrap
import threading
import time
from unittest import mock

import numpy as np
import pytest
from repro import perf
from repro.cluster.faults import FaultPlan, FaultRule
from repro.cluster.progress import ProgressFeed
from repro.errors import DeadlineExceededError, RankFailedError, RenderError
from repro.pipeline import render_pool
from repro.pipeline.config import RunConfig
from repro.pipeline.phases import RankRender, build_scene, render_task
from repro.pipeline.render_pool import MAX_WORKERS, RenderPool
from repro.pipeline.session import RenderJob
from repro.render import camera as camera_module
from repro.render.camera import Camera
from repro.pipeline.system import SortLastSystem
from repro.serving import RenderService

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
METHODS = ["bs", "bsbr", "bslc", "bsbrc", "radix-k:rect-rle"]
RAYCAST = ("raycast.setups", "raycast.rays", "raycast.empty_rays",
           "raycast.march_calls", "raycast.samples", "raycast.samples_skipped")


_WATCHDOG_SECONDS = 90


@pytest.fixture(autouse=True)
def _hang_watchdog():
    """A hung worker fails the test instead of stalling the suite, with
    or without pytest-timeout (interval timers are not inherited across
    fork, so the alarm never fires inside a worker)."""

    def _fire(signum, frame):  # pragma: no cover - only on a real hang
        raise RuntimeError(f"render pool test exceeded the {_WATCHDOG_SECONDS}s watchdog")

    previous = signal.signal(signal.SIGALRM, _fire)
    signal.alarm(_WATCHDOG_SECONDS)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="module")
def pool():
    with RenderPool(2) as warm:
        yield warm


def _cfg(method="bsbrc", num_ranks=4, **overrides):
    kwargs = dict(dataset="engine_low", volume_shape=(24, 24, 12), image_size=48,
                  num_ranks=num_ranks, rot_x=20.0, rot_y=30.0)
    kwargs.update(overrides)
    return RunConfig(method=method, **kwargs)


def _run(cfg, workers_or_pool, **run_kwargs):
    """``(result, perf report)`` of one run with ``workers_or_pool`` (a
    pool, or the width of a fresh one) as the process-wide pool."""
    target = (RenderPool(workers_or_pool) if isinstance(workers_or_pool, int)
              else workers_or_pool)
    with mock.patch.object(render_pool, "_SHARED", target), perf.scope() as registry:
        result = SortLastSystem(cfg).run(**run_kwargs)
    return result, registry.report()


def _observables(result, report):
    """Everything a pooled render must leave exactly as inline."""
    ranks = []
    for entry in result.timeline.to_dict()["ranks"]:
        ranks.append([
            {k: st[k] for k in ("stage", "bytes_sent", "bytes_recv", "msgs_sent",
                                "msgs_recv", "counters", "comp_time", "comm_time",
                                "wait_time")}
            for st in entry["stages"]
        ])
    counters = report["counters"]
    return {
        "final": (result.final_image.intensity.tobytes(),
                  result.final_image.opacity.tobytes()),
        "subimages": [(s.intensity.tobytes(), s.opacity.tobytes())
                      for s in result.subimages],
        "ranks": ranks,
        "makespan": result.timeline.makespan,
        "degraded": result.degraded,
        "counters": {name: counters.get(name, 0) for name in
                     RAYCAST + ("pipeline.render_cache_hits",
                                "pipeline.render_cache_misses")},
        "render_calls": report["timers"].get("pipeline.render", {}).get("calls", 0),
    }


def _square(x):
    return x * x


def _raise_render_error(message):
    raise RenderError(message)


# ---- equivalence -------------------------------------------------------------
class TestEquivalence:
    @pytest.mark.parametrize("num_ranks", [4, 16])
    @pytest.mark.parametrize("method", METHODS)
    def test_matrix(self, method, num_ranks, pool):
        cfg = _cfg(method, num_ranks)
        inline = _observables(*_run(cfg, 0))
        submitted = pool.submitted
        pooled = _observables(*_run(cfg, pool))
        assert pooled == inline
        assert pool.submitted - submitted == num_ranks
        assert inline["counters"]["raycast.setups"] == num_ranks

    @pytest.mark.parametrize("rule", [
        FaultRule(kind="crash", rank=1, phase="render"),
        FaultRule(kind="crash", rank=1, stage=1),
    ], ids=["render-crash", "stage-crash"])
    def test_degrade_rerun(self, rule, pool):
        """The survivors' re-run issues renders for the folded plan's
        merged extents; both attempts match the inline run."""
        cfg = _cfg("bsbrc", 8)
        plan = FaultPlan(rules=(rule,), seed=3)
        inline = _observables(*_run(cfg, 0, fault_plan=plan, recovery="degrade"))
        pooled = _observables(*_run(cfg, pool, fault_plan=plan, recovery="degrade"))
        assert inline["degraded"] and len(inline["subimages"]) == 7
        assert pooled == inline

    def test_render_cache_miss_then_hit(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "inline"))
        cfg = _cfg("bsbrc", 4)
        cold_inline = _observables(*_run(cfg, 0))
        warm_inline = _observables(*_run(cfg, 0))

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "pooled"))
        with RenderPool(2) as fresh:
            cold = _observables(*_run(cfg, fresh))
            assert fresh.forks == 1 and fresh.submitted == 4
            warm = _observables(*_run(cfg, fresh))
            assert fresh.submitted == 4  # every rank hit: nothing issued
        assert cold == cold_inline and warm == warm_inline
        assert cold["counters"]["pipeline.render_cache_misses"] == 4
        assert warm["counters"]["pipeline.render_cache_hits"] == 4
        assert warm["counters"]["raycast.setups"] == 0

    def test_an_all_hit_run_forks_nothing(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cfg = _cfg("bs", 4)
        _run(cfg, 0)
        with RenderPool(2) as fresh:
            _run(cfg, fresh)
            assert fresh.forks == 0 and fresh.pids() == []

    def test_mp_and_fused_paths_render_in_the_rank(self, pool):
        submitted = pool.submitted
        _run(_cfg("tile-routed:rect-rle", 4, method_options={"tile": 16}), pool)
        _run(_cfg("bsbrc", 4, backend="mp"), pool)
        assert pool.submitted == submitted

    def test_concurrent_sessions_account_separately(self, pool, monkeypatch):
        """Two jobs in flight on one pool: each job's counters are its
        own run's, exactly as when it runs alone inline."""
        monkeypatch.setattr(render_pool, "_SHARED", pool)
        small, large = _cfg(image_size=32), _cfg(image_size=64)
        with RenderService(small, max_workers=2) as service:
            a = service.submit("a", stream=False)
            b = service.submit("b", stream=False, image_size=64)
            a.result(timeout=120)
            b.result(timeout=120)
        for ticket, cfg in ((a, small), (b, large)):
            alone = _run(cfg, 0)[1]["counters"]
            got = ticket.perf_report["counters"]
            assert {n: got.get(n, 0) for n in RAYCAST} == {n: alone.get(n, 0) for n in RAYCAST}


# ---- the pool itself -----------------------------------------------------------
class TestPool:
    def test_inline_below_two_workers(self):
        for workers in (0, 1):
            inline = RenderPool(workers)
            assert inline.submit(_square, 7).result() == 49
            assert inline.forks == 0 and inline.pids() == []

    def test_default_width_is_the_affinity_mask_capped(self):
        assert RenderPool().workers == min(len(os.sched_getaffinity(0)), MAX_WORKERS)

    def test_no_affinity_call_runs_inline(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity")
        inline = RenderPool()
        assert inline.workers == 0
        assert inline.submit(_square, 6).result() == 36 and inline.forks == 0

    def test_threads_sharing_a_pool_get_their_own_results(self):
        """More workers than cores, four submitting threads, a tiny
        switch interval: every result reaches the task that asked."""
        errors = []

        def client(base):
            try:
                pending = [(x, shared.submit(_square, x)) for x in range(base, base + 40)]
                for x, p in pending[::-1]:
                    assert p.result() == x * x
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with RenderPool(len(os.sched_getaffinity(0)) + 2) as shared:
                threads = [threading.Thread(target=client, args=(1000 * i,)) for i in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(60)
                assert not any(thread.is_alive() for thread in threads)
                assert shared.submitted == 160 and shared.inline_reruns == 0
        finally:
            sys.setswitchinterval(interval)
        assert not errors, errors


# ---- failure semantics -----------------------------------------------------------
class TestFailures:
    def test_killed_worker_reruns_inline_then_refork(self, monkeypatch):
        """SIGKILL a worker as rank 0 starts awaiting its render, with
        most of the frame's renders still queued or in flight."""
        cfg = _cfg("bsbrc", 16)
        inline = _observables(*_run(cfg, 0))
        with RenderPool(2) as fresh:
            _run(cfg.with_(rot_y=5.0), fresh)  # warm
            first_pids = fresh.pids()
            victim = [first_pids[0]]
            awaited = RankRender.result

            def kill_then_await(render):
                if victim:
                    os.kill(victim.pop(), signal.SIGKILL)
                return awaited(render)

            monkeypatch.setattr(RankRender, "result", kill_then_await)
            hurt = _observables(*_run(cfg, fresh))
            monkeypatch.undo()
            assert hurt == inline
            assert fresh.inline_reruns >= 1 and fresh.forks == 1
            again = _observables(*_run(cfg, fresh))
            assert again == inline
            assert fresh.forks == 2
            assert set(fresh.pids()).isdisjoint(first_pids)

    def test_worker_killed_while_idle_is_replaced(self):
        with RenderPool(2) as fresh:
            assert fresh.submit(_square, 3).result() == 9
            os.kill(fresh.pids()[1], signal.SIGKILL)
            time.sleep(0.2)
            assert [fresh.submit(_square, x).result() for x in range(5)] == [
                x * x for x in range(5)
            ]
            assert fresh.forks == 2

    def test_task_error_is_the_inline_error(self, pool):
        with pytest.raises(RenderError, match="no such extent") as inline:
            RenderPool(0).submit(_raise_render_error, "no such extent").result()
        with pytest.raises(RenderError, match="no such extent") as pooled:
            pool.submit(_raise_render_error, "no such extent").result()
        assert type(pooled.value) is type(inline.value)
        assert "_raise_render_error" in str(pooled.value.__cause__)
        assert pool.submit(_square, 5).result() == 25  # the pool carries on

    def test_render_task_is_pure(self, pool):
        cfg = _cfg("bsbrc", 4)
        extent = build_scene(cfg).plan.extent(2)
        inline = render_task(cfg, extent)
        pooled = pool.submit(render_task, cfg, extent).result()
        assert pooled[0] == inline[0]
        assert np.array_equal(pooled[1], inline[1]) and np.array_equal(pooled[2], inline[2])
        assert pooled[3]["counters"] == inline[3]["counters"]

    def test_failed_job_cancels_its_pending_renders(self, pool, monkeypatch):
        """A strict job whose rank 1 crashes in the render phase fails
        with rank 0's render consumed and most others still queued:
        those are cancelled, and nothing leaks into the next job."""
        monkeypatch.setattr(render_pool, "_SHARED", pool)
        crash = FaultPlan(rules=(FaultRule(kind="crash", rank=1, phase="render"),), seed=5)
        cancelled = pool.cancelled
        with RenderService(_cfg("bsbrc", 16), max_workers=1) as service:
            service.open_session("s", qos="strict")
            ticket = service.submit("s", RenderJob(fault_plan=crash))
            with pytest.raises(RankFailedError):
                ticket.result(timeout=120)
            clean = service.submit("s").result(timeout=120)
        assert pool.cancelled > cancelled
        assert clean.final_image.max_abs_diff(_run(_cfg("bsbrc", 16), 0)[0].final_image) == 0

    def test_deadlined_service_job_leaves_no_render_behind(self, pool, monkeypatch):
        """A running job's deadline fires at its first stage boundary,
        after the simulator has taken every rank's render: the job
        fails typed and the next job on the pool is exact."""
        monkeypatch.setattr(render_pool, "_SHARED", pool)
        feed = ProgressFeed()
        feed.set_deadline(time.monotonic() - 1.0, 0.001)
        cfg = _cfg("bsbrc", 16)
        with RenderService(cfg, max_workers=1) as service:
            ticket = service.submit("s", RenderJob(progress=feed))
            with pytest.raises(DeadlineExceededError, match="boundary"):
                ticket.result(timeout=120)
            assert service.deadline_jobs == 1
        assert _observables(*_run(cfg, pool)) == _observables(*_run(cfg, 0))


# ---- forking beside other threads ------------------------------------------------
def test_fork_beside_a_thread_inside_a_camera_attribute(monkeypatch):
    """The pool forks from a process whose other threads may hold locks
    at that moment, and a worker inherits them held.  One thread is
    paused inside a Camera attribute while the pool forks; a render in
    the worker, whose Camera is built there, must still finish
    (``functools.cached_property`` before 3.12 held one lock per
    attribute across every instance while computing it)."""
    entered, release = threading.Event(), threading.Event()
    rotation = camera_module.rotation_matrix

    def paused(*args):
        if threading.current_thread().name == "holder":
            entered.set()
            release.wait(30)
        return rotation(*args)

    monkeypatch.setattr(camera_module, "rotation_matrix", paused)
    extent = build_scene(_cfg("bsbrc", 4)).plan.extent(0)
    holder = threading.Thread(target=lambda: Camera(8, 8, (4, 4, 4)).basis(),
                              name="holder", daemon=True)
    holder.start()
    assert entered.wait(10)
    pool = RenderPool(2)
    try:
        pending = pool.submit(render_task, _cfg("bsbrc", 4, rot_y=73.0), extent)
        waiter = threading.Thread(target=pending.result, daemon=True)
        waiter.start()
        waiter.join(20)
        assert not waiter.is_alive(), "the worker waits on a lock the paused thread holds"
    finally:
        release.set()
        holder.join(10)
        for pid in pool.pids():  # a deadlocked worker never exits by itself
            os.kill(pid, signal.SIGKILL)
        pool.shutdown()


# ---- lifetime ------------------------------------------------------------------
_HOLDER = textwrap.dedent("""
    import os, signal, sys, time
    from repro.pipeline import render_pool
    from repro.pipeline.config import RunConfig
    from repro.pipeline.system import SortLastSystem

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))  # a drain-then-exit server
    pool = render_pool._SHARED = render_pool.RenderPool(2)
    SortLastSystem(RunConfig(dataset="engine_low", volume_shape=(24, 24, 12),
                             image_size=32, num_ranks=4)).run()
    print(" ".join(map(str, pool.pids())), flush=True)
    if sys.argv[1] == "exit":
        sys.exit(0)
    time.sleep(120)
""")


def _gone(pid):
    try:
        with open(f"/proc/{pid}/status") as status:
            return any(line.split()[1] in ("Z", "X") for line in status
                       if line.startswith("State:"))
    except FileNotFoundError:
        return True


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
class TestLifetime:
    @pytest.mark.parametrize("end", ["exit", "SIGTERM", "SIGKILL"])
    def test_workers_never_outlive_the_parent(self, end):
        holder = subprocess.Popen(
            [sys.executable, "-c", _HOLDER, end], stdout=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": SRC},
        )
        try:
            pids = [int(p) for p in holder.stdout.readline().split()]
            assert len(pids) == 2
            if end != "exit":
                holder.send_signal(getattr(signal, end))
            # The shared stdout pipe reaches EOF: no worker holds it.
            deadline = time.monotonic() + 2.0
            while True:
                left = deadline - time.monotonic()
                assert left > 0, "parent's stdout still open after 2 s"
                if select.select([holder.stdout], [], [], left)[0]:
                    if not os.read(holder.stdout.fileno(), 4096):
                        break
            holder.wait(timeout=10)
            deadline = time.monotonic() + 2.0
            while not all(_gone(pid) for pid in pids):
                assert time.monotonic() < deadline, f"workers {pids} outlived the parent"
                time.sleep(0.02)
        finally:
            if holder.poll() is None:
                holder.kill()
                holder.wait()
            holder.stdout.close()
