"""Multi-render sessions: a warm backend accepting many jobs.

The one-shot entry (:class:`~repro.pipeline.system.SortLastSystem`)
builds everything per call.  A :class:`RenderSession` decouples the
expensive, reusable state from any single render: it owns **one**
backend instance and a base :class:`~repro.pipeline.config.RunConfig`,
and accepts a stream of :class:`RenderJob`\\ s — each a *delta* against
the base config (new camera angles, a different compositing method, a
different dataset, an injected fault plan) plus per-job run options.

What "warm" buys per substrate:

* **sim** — all ranks live in the session's process, so the scene memo
  (:data:`~repro.pipeline.phases._SCENE_MEMO`) and any on-disk render
  cache are hot across jobs; nothing is ever forked.  Live
  :class:`~repro.cluster.progress.ProgressFeed` streaming works here.
* **mp** — worker processes are forked per job (the protocol ties a
  queue fabric's lifetime to one run), but forking *from the session's
  warmed parent* means children inherit the populated scene memo, and
  the ``REPRO_CACHE_DIR`` render cache carries rendered subimages
  across jobs — the dominant per-job cost for repeated cameras.

Determinism contract: a session adds no hidden state that feeds the
render — back-to-back jobs on one session produce timelines and images
bit-identical to fresh one-shot runs of the same configs (tested in
``tests/test_session.py``).

Sessions are intentionally synchronous — one job at a time per session.
Concurrency across *sessions* (N users multiplexed over one bounded
worker pool, with per-session QoS) is the serving layer's job:
:mod:`repro.serving`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

from ..cluster.backend import Backend, make_backend
from ..cluster.faults import FaultPlan
from ..cluster.progress import ProgressFeed
from ..errors import ConfigurationError
from .config import RunConfig
from .system import SortLastSystem, SystemResult

__all__ = ["RenderJob", "RenderSession"]


@dataclass(frozen=True)
class RenderJob:
    """One render request against a session's base configuration.

    ``deltas`` are :meth:`RunConfig.with_` keyword overrides (e.g.
    ``{"rot_y": 45.0}``, ``{"method": "tile-routed:rle"}``,
    ``{"dataset": "sphere"}``); everything else mirrors the run options
    of :meth:`~repro.pipeline.system.SortLastSystem.run`.  ``recovery``
    of ``None`` defers to the (possibly overridden) config's policy.
    """

    deltas: Mapping[str, Any] = field(default_factory=dict)
    fault_plan: Optional[FaultPlan] = None
    recovery: Optional[str] = None
    #: Live partial-frame feed (sim substrate only; one feed per job).
    progress: Optional[ProgressFeed] = None
    #: Free-form tag carried through for the submitter's bookkeeping.
    label: Optional[str] = None
    #: Wall-clock budget in seconds from admission; the serving layer
    #: drops queued-past-deadline jobs before execution and aborts
    #: running ones at checkpoint/tile boundaries (``None`` = no limit).
    deadline_s: Optional[float] = None
    #: Caller-owned checkpoint store for whole-run resume from its
    #: common stage (see :meth:`~repro.pipeline.system.SortLastSystem.run`);
    #: requires a resume-capable recovery policy.
    checkpoint_store: Any = None

    def config_for(self, base: RunConfig) -> RunConfig:
        """The job's effective config: ``base`` with this job's deltas."""
        return base.with_(**dict(self.deltas)) if self.deltas else base


class RenderSession:
    """A warm backend plus a base config, accepting many render jobs.

    >>> session = RenderSession(RunConfig(num_ranks=4, image_size=128))
    >>> a = session.submit(rot_y=30.0)
    >>> b = session.submit(method="tile-routed:rle")   # doctest: +SKIP

    The same :class:`~repro.cluster.backend.Backend` instance executes
    every job; jobs run synchronously in submission order.  Use one
    session per logical client and :class:`repro.serving.RenderService`
    to multiplex sessions over a shared bounded worker pool.
    """

    def __init__(
        self,
        config: RunConfig,
        *,
        backend: "str | Backend | None" = None,
        name: Optional[str] = None,
    ):
        if backend is None:
            backend = config.backend
        self.backend: Backend = (
            make_backend(backend) if isinstance(backend, str) else backend
        )
        self.config = config
        self.name = name if name is not None else f"session-{id(self):x}"
        #: Jobs completed so far (successful submits).
        self.jobs_completed = 0
        self._closed = False

    @property
    def closed(self) -> bool:
        return self._closed

    def submit(self, job: Optional[RenderJob] = None, /, **deltas: Any) -> SystemResult:
        """Run one job on the warm backend and return its result.

        Pass a prepared :class:`RenderJob`, or just config deltas as
        keywords (``session.submit(rot_y=45.0)``) for a plain render.
        """
        if self._closed:
            raise ConfigurationError(f"render session {self.name!r} is closed")
        if job is None:
            job = RenderJob(deltas=deltas)
        elif deltas:
            raise ConfigurationError(
                "pass either a RenderJob or config deltas, not both"
            )
        cfg = job.config_for(self.config)
        result = SortLastSystem(cfg).run(
            backend=self.backend,
            fault_plan=job.fault_plan,
            recovery=job.recovery,
            progress=job.progress,
            checkpoint_store=job.checkpoint_store,
        )
        self.jobs_completed += 1
        return result

    def close(self) -> None:
        """Mark the session closed; further submits raise."""
        self._closed = True

    def __enter__(self) -> "RenderSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else "open"
        return (
            f"RenderSession({self.name!r}, backend={self.backend.name!r}, "
            f"jobs={self.jobs_completed}, {state})"
        )
