"""Lightweight performance counters and timers for the hot paths.

The renderer, the codecs and the experiment harness account their work
here so that benchmarks (``benchmarks/e2e/``) and curious
users can see *where* time and bytes go without attaching a profiler.

Design constraints:

* **Near-zero overhead when idle.**  Counters are plain dict adds and
  are bumped at call/chunk granularity, never per pixel or per sample
  element.  Timers call ``time.perf_counter``/``time.process_time``
  twice per timed region, so they wrap whole renders or harness stages,
  not inner loops.
* **Context-scoped, explicitly resettable.**  Counts land in the
  *current* :class:`PerfRegistry` — a process-wide default unless a
  :func:`scope` is active.  The module-level API keeps its three verbs
  (:func:`incr`, :func:`timer`, :func:`report`, plus :func:`reset`)
  and, with no scope in play, behaves exactly like the old
  process-global registry.  A render service running several sessions
  concurrently gives each run its own registry via ``with
  perf.scope(...):`` so sessions never interleave each other's
  counters (the scope is a :mod:`contextvars` binding, so it is
  thread- and task-local).

Example
-------
>>> from repro import perf
>>> perf.reset()
>>> with perf.timer("render"):
...     perf.incr("rays", 1024)
>>> rep = perf.report()
>>> rep["counters"]["rays"]
1024

Scoped example — the outer registry never sees the inner counts::

>>> with perf.scope() as inner:
...     perf.incr("rays", 7)
...     assert perf.counter("rays") == 7
>>> inner.counter("rays")
7
"""

from __future__ import annotations

import contextvars
import time
from contextlib import contextmanager
from typing import Iterator, Optional

__all__ = [
    "PerfRegistry",
    "incr",
    "timer",
    "counter",
    "report",
    "reset",
    "format_report",
    "scope",
    "current",
]


class PerfRegistry:
    """One independent set of counters and timers.

    Instances are cheap; a long-lived service makes one per render job
    so concurrent runs account separately.  All methods mirror the
    module-level API.
    """

    __slots__ = ("_counters", "_timers")

    def __init__(self) -> None:
        #: name -> accumulated count (ints or floats).
        self._counters: dict[str, float] = {}
        #: name -> [wall_seconds, cpu_seconds, calls].
        self._timers: dict[str, list[float]] = {}

    def incr(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to counter ``name`` (creating it at zero)."""
        self._counters[name] = self._counters.get(name, 0) + amount

    def counter(self, name: str) -> float:
        """Current value of counter ``name`` (0 if never bumped)."""
        return self._counters.get(name, 0)

    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        """Accumulate wall and CPU time of the ``with`` body under ``name``."""
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        try:
            yield
        finally:
            wall1 = time.perf_counter()
            cpu1 = time.process_time()
            slot = self._timers.get(name)
            if slot is None:
                slot = [0.0, 0.0, 0]
                self._timers[name] = slot
            slot[0] += wall1 - wall0
            slot[1] += cpu1 - cpu0
            slot[2] += 1

    def report(self) -> dict:
        """Snapshot of all counters and timers (JSON-serializable)."""
        return {
            "counters": dict(self._counters),
            "timers": {
                name: {"wall_s": slot[0], "cpu_s": slot[1], "calls": slot[2]}
                for name, slot in self._timers.items()
            },
        }

    def merge(self, report: dict) -> None:
        """Add another registry's :meth:`report` into this one (how a
        render worker's counts reach the run that issued its task)."""
        for name, amount in report["counters"].items():
            self.incr(name, amount)
        for name, entry in report["timers"].items():
            slot = self._timers.setdefault(name, [0.0, 0.0, 0])
            slot[0] += entry["wall_s"]
            slot[1] += entry["cpu_s"]
            slot[2] += entry["calls"]

    def reset(self) -> None:
        """Zero every counter and timer."""
        self._counters.clear()
        self._timers.clear()

    def format_report(self) -> str:
        """Human-readable one-line-per-entry rendering of :meth:`report`."""
        lines = ["perf counters:"]
        if not self._counters and not self._timers:
            return "perf counters: (empty)"
        for name in sorted(self._counters):
            value = self._counters[name]
            shown = f"{value:.6g}" if isinstance(value, float) else str(value)
            lines.append(f"  {name:40s} {shown}")
        if self._timers:
            lines.append("perf timers:")
            for name in sorted(self._timers):
                wall, cpu, calls = self._timers[name]
                lines.append(
                    f"  {name:40s} wall {wall * 1e3:10.2f} ms  "
                    f"cpu {cpu * 1e3:10.2f} ms  calls {calls}"
                )
        return "\n".join(lines)


#: The process-wide default registry: the module API targets this one
#: whenever no :func:`scope` is active — the pre-scoping behaviour.
_DEFAULT = PerfRegistry()

_CURRENT: contextvars.ContextVar[PerfRegistry] = contextvars.ContextVar(
    "repro-perf-registry", default=_DEFAULT
)


def current() -> PerfRegistry:
    """The registry the module-level verbs target right now."""
    return _CURRENT.get()


@contextmanager
def scope(registry: Optional[PerfRegistry] = None) -> Iterator[PerfRegistry]:
    """Route the module-level API into ``registry`` for the ``with`` body.

    ``None`` makes a fresh empty registry.  Scopes nest, and the binding
    is contextvar-local: two threads (or asyncio tasks) holding
    different scopes account independently — that is what keeps
    concurrent render sessions from interleaving counters.
    """
    target = registry if registry is not None else PerfRegistry()
    token = _CURRENT.set(target)
    try:
        yield target
    finally:
        _CURRENT.reset(token)


def incr(name: str, amount: float = 1) -> None:
    """Add ``amount`` to counter ``name`` in the current registry."""
    current().incr(name, amount)


def counter(name: str) -> float:
    """Current value of counter ``name`` (0 if never bumped)."""
    return current().counter(name)


def timer(name: str):
    """Accumulate wall and CPU time of the ``with`` body under ``name``."""
    return current().timer(name)


def report() -> dict:
    """Snapshot of the current registry (JSON-serializable)."""
    return current().report()


def reset() -> None:
    """Zero every counter and timer of the current registry."""
    current().reset()


def format_report() -> str:
    """Human-readable rendering of the current registry's :func:`report`."""
    return current().format_report()
