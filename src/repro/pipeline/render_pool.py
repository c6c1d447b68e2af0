"""A warm, forked worker pool for the simulator's render phase.

Under the simulator every rank lives in one process, so the P subimages
would render one after another on one core while the host's other cores
idle.  Rendering charges no modelled time and is a pure function of
``(scene, extent)``, so :class:`RenderPool` runs those tasks in W worker
processes while the event engine composites: each rank program awaits
its subimage through :meth:`Pending.result` and starts compositing while
later ranks are still rendering.

* **W** is the number of cores this process may run on, capped at
  :data:`MAX_WORKERS`; a host without ``os.sched_getaffinity`` gets 0.
  ``W <= 1`` runs the same task function inline, at the moment its
  result is asked for — one code path, not two.
* **Fork point.**  The pool is a fork-context ``ProcessPoolExecutor``
  created by the first :meth:`RenderPool.submit`, so its workers inherit
  the parent's warmed scene and dataset memos; nothing is forked at
  import or construction.  The fork may happen while other threads of
  the parent (service jobs) hold locks, and a worker inherits those
  locks held, so a task must take none another thread could hold: the
  render path uses no ``functools.cached_property`` (a lock shared by
  every instance before Python 3.12), for one.
* **Failure.**  A task is a pure function, so there is no recovery
  policy: when a worker dies, the executor breaks, every task it still
  owed re-runs inline (bit-identical), and the next submit forks a fresh
  executor.  An exception raised *by* a task surfaces from
  :meth:`Pending.result` exactly as the inline call would raise it.
* **Lifetime.**  Workers never outlive the parent.  Each executor comes
  with a parent-death pipe whose write end only the parent holds (every
  forked child closes its copy); a worker thread blocks on the read end
  and exits the worker at EOF, which the kernel delivers however the
  parent dies — normal exit, a SIGTERM drain, or SIGKILL.  Workers point
  their stdin/stdout/stderr at ``/dev/null``, so a reader of the
  parent's output pipe sees EOF when the parent goes.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Optional

__all__ = ["MAX_WORKERS", "Pending", "RenderPool", "shared_pool"]

#: Most workers a default pool forks.  Pairs were measured on a 2-core
#: host only; above that, one worker per core is untested.
MAX_WORKERS = 2

#: Write ends of the live executors' parent-death pipes.  Only the
#: process that created an executor may hold one, so every forked child
#: (pool workers, mp backend ranks) closes them on the way in.
_PARENT_ENDS: set[int] = set()


def _close_parent_ends() -> None:
    for fd in _PARENT_ENDS:
        os.close(fd)
    _PARENT_ENDS.clear()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_close_parent_ends)


def _default_workers() -> int:
    if not hasattr(os, "sched_getaffinity"):
        return 0
    return min(len(os.sched_getaffinity(0)), MAX_WORKERS)


def _exit_at_eof(read_end: int) -> None:
    os.read(read_end, 1)  # nothing is ever written: this returns at EOF
    os._exit(0)


def _detach(read_end: int) -> None:
    """Worker initializer: leave the parent's terminal streams and
    signals, and exit as soon as the parent is gone."""
    devnull = os.open(os.devnull, os.O_RDWR)
    for fd in (0, 1, 2):
        os.dup2(devnull, fd)
    os.close(devnull)
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent owns Ctrl-C
    signal.signal(signal.SIGTERM, signal.SIG_DFL)  # not serve's drain handler
    threading.Thread(target=_exit_at_eof, args=(read_end,), daemon=True).start()


class Pending:
    """One submitted task's result on its way.

    :meth:`result` returns ``fn(*args)``: from the worker that ran it,
    or computed inline when the pool is off or lost the worker.
    """

    __slots__ = ("_fn", "_args", "_future", "_pool", "_executor")

    def __init__(self, fn: Callable[..., Any], args: tuple, pool=None, executor=None):
        self._fn = fn
        self._args = args
        self._pool = pool
        self._executor = executor
        self._future = None if executor is None else executor.submit(fn, *args)

    def result(self) -> Any:
        if self._future is not None:
            try:
                return self._future.result()
            except BrokenProcessPool:  # its worker died: run it here
                self._pool._lost(self._executor)
        return self._fn(*self._args)

    def cancel(self) -> None:
        """Drop the task if no worker has picked it up yet."""
        if self._future is not None and self._future.cancel():
            with self._pool._lock:
                self._pool.cancelled += 1


class RenderPool:
    """W render workers forked on first use; ``W <= 1`` runs inline.

    ``workers`` defaults to the cores this process may run on, at most
    :data:`MAX_WORKERS`.  The pool is thread-safe: concurrent render
    sessions share one.  The counters (``forks``, ``submitted``,
    ``cancelled``, ``inline_reruns``) describe the pool's own life,
    never a run's accounting.
    """

    def __init__(self, workers: Optional[int] = None):
        self.workers = _default_workers() if workers is None else int(workers)
        self.forks = 0
        self.submitted = 0
        self.cancelled = 0
        self.inline_reruns = 0
        self._lock = threading.RLock()
        self._executor: Optional[ProcessPoolExecutor] = None
        self._death_pipe: tuple[int, int] = (-1, -1)

    def submit(self, fn: Callable[..., Any], *args: Any) -> Pending:
        """Issue ``fn(*args)``; ``fn`` must be a module-level function."""
        if self.workers <= 1:
            return Pending(fn, args)
        with self._lock:
            self.submitted += 1
            for _ in range(2):  # a second try after a worker died idle
                executor = self._executor or self._fork()
                try:
                    return Pending(fn, args, self, executor)
                except BrokenProcessPool:
                    self._retire(executor)
                except OSError:  # cannot fork (out of memory or processes)
                    self._retire(executor)
                    break
        return Pending(fn, args)

    def pids(self) -> list[int]:
        """Process ids of the live workers (empty before the fork)."""
        with self._lock:
            executor = self._executor
            return [] if executor is None else list(executor._processes or ())

    def shutdown(self) -> None:
        """Stop the workers; a later :meth:`submit` forks new ones."""
        with self._lock:
            executor = self._executor
        if executor is not None:
            self._retire(executor, wait=True)

    def __enter__(self) -> "RenderPool":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    # ---- internals ---------------------------------------------------------------
    def _fork(self) -> ProcessPoolExecutor:
        read_end, write_end = os.pipe()
        _PARENT_ENDS.add(write_end)
        self._death_pipe = (read_end, write_end)
        self._executor = ProcessPoolExecutor(
            self.workers,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_detach,
            initargs=(read_end,),
        )
        self.forks += 1
        return self._executor

    def _retire(self, executor: ProcessPoolExecutor, *, wait: bool = False) -> None:
        """Stop ``executor`` if it is still this pool's; its workers exit
        at the latest when the death pipe closes."""
        with self._lock:
            if self._executor is not executor:
                return
            self._executor = None
            read_end, write_end = self._death_pipe
            _PARENT_ENDS.discard(write_end)
        executor.shutdown(wait=wait, cancel_futures=True)
        os.close(read_end)
        os.close(write_end)

    def _lost(self, executor: ProcessPoolExecutor) -> None:
        with self._lock:
            self.inline_reruns += 1
        self._retire(executor)


_SHARED: Optional[RenderPool] = None
_SHARED_LOCK = threading.Lock()


def shared_pool() -> RenderPool:
    """The process-wide pool every simulator run uses."""
    global _SHARED
    with _SHARED_LOCK:
        if _SHARED is None:
            _SHARED = RenderPool()
        return _SHARED
