"""Render-as-a-service: sessions, QoS, and progressive frame delivery.

Layered on the pipeline's :class:`~repro.pipeline.session.RenderSession`:

* :mod:`repro.serving.service` — :class:`RenderService` multiplexes N
  concurrent sessions over one bounded :class:`WorkerPool`, with
  per-session QoS mapped onto the recovery lattice and per-job scoped
  perf registries.
* :mod:`repro.serving.frames` — :class:`ProgressiveFrame` folds
  streamed :class:`~repro.cluster.progress.ProgressEvent`\\ s into a
  best-known partial display image.
* :mod:`repro.serving.spool` — a file-spool process boundary
  (``repro.serve-job/1`` in, ``repro.serve-event/4`` +
  ``repro.serve-result/1`` out) behind the ``repro-experiments serve``
  / ``submit`` CLI.
"""

from .frames import ProgressiveFrame
from .service import (
    DEFAULT_QOS,
    JobTicket,
    QOS_POLICIES,
    QOS_SHED_PRIORITY,
    RenderService,
    SERVE_CONTROL_SCHEMA,
    SHED_POLICIES,
    SessionHandle,
    WorkerPool,
)
from .spool import (
    JOB_SCHEMA,
    LEASE_SCHEMA,
    RESULT_SCHEMA,
    load_result,
    read_events,
    serve,
    submit_job,
    wait_for_result,
)

__all__ = [
    "DEFAULT_QOS",
    "JOB_SCHEMA",
    "JobTicket",
    "LEASE_SCHEMA",
    "ProgressiveFrame",
    "QOS_POLICIES",
    "QOS_SHED_PRIORITY",
    "RESULT_SCHEMA",
    "RenderService",
    "SERVE_CONTROL_SCHEMA",
    "SHED_POLICIES",
    "SessionHandle",
    "WorkerPool",
    "load_result",
    "read_events",
    "serve",
    "submit_job",
    "wait_for_result",
]
