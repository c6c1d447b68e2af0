"""Exception hierarchy for the :mod:`repro` package.

All errors raised intentionally by this library derive from
:class:`ReproError`, so callers can catch the whole family with a single
``except`` clause while still distinguishing substrate failures
(:class:`SimulationError`), malformed wire data (:class:`WireFormatError`),
and configuration mistakes (:class:`ConfigurationError`).
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigurationError",
    "SimulationError",
    "DeadlockError",
    "LivelockError",
    "RankFailedError",
    "WireFormatError",
    "PartitionError",
    "RenderError",
    "CompositingError",
    "ServingError",
    "OverloadError",
    "JobRejectedError",
    "JobShedError",
    "JobCancelledError",
    "DeadlineExceededError",
    "LeaseReclaimExhausted",
]


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` library."""


class ConfigurationError(ReproError, ValueError):
    """An invalid run/machine/camera configuration was supplied."""


class SimulationError(ReproError, RuntimeError):
    """The discrete-event cluster simulator reached an invalid state."""


class DeadlockError(SimulationError):
    """Every live rank is blocked on communication and no pair matches.

    Carries a human-readable summary of what each rank was blocked on so
    that protocol bugs in compositing methods are diagnosable.  When the
    detecting substrate knows them, ``phase`` (pipeline phase), ``stage``
    (compositing stage bucket) and ``peer`` (the rank being waited on)
    pinpoint the blockage without reading the timeline.  The simulator
    also supplies ``last_progress`` — each blocked rank's virtual time of
    last forward progress (when it posted the operation it is stuck in) —
    so large-P hangs are diagnosable without a full trace: the rank with
    the *earliest* last-progress time is usually the root cause.

    Under schedule exploration (:mod:`repro.cluster.schedule_policy`)
    the simulator also stamps ``sched_policy`` (the policy name),
    ``sched_trace`` (path of the saved decision trace, when one was
    arranged) and ``sched_decisions`` (the compact in-memory decision
    list) — so a hung interleaving is reproducible from the error alone
    via ``--replay-trace``.
    """

    def __init__(
        self,
        blocked: dict[int, str],
        *,
        phase: str | None = None,
        stage: int | None = None,
        peer: int | None = None,
        last_progress: dict[int, float] | None = None,
        sched_policy: str | None = None,
        sched_trace: str | None = None,
        sched_decisions: list[dict] | None = None,
    ):
        self.blocked = dict(blocked)
        self.phase = phase
        self.stage = stage
        self.peer = peer
        self.last_progress = dict(last_progress) if last_progress else {}
        self.sched_policy = sched_policy
        self.sched_trace = sched_trace
        self.sched_decisions = list(sched_decisions) if sched_decisions else []
        detail = "; ".join(
            f"rank {r}: {what}"
            + (
                f" (idle since t={self.last_progress[r]:.6f})"
                if r in self.last_progress
                else ""
            )
            for r, what in sorted(blocked.items())
        )
        where = []
        if phase is not None:
            where.append(f"phase {phase!r}")
        if stage is not None:
            where.append(f"stage {stage}")
        if peer is not None:
            where.append(f"waiting on rank {peer}")
        if sched_policy is not None:
            where.append(f"schedule policy {sched_policy!r}")
            if sched_trace is not None:
                where.append(f"trace {sched_trace}")
            elif self.sched_decisions:
                compact = ",".join(
                    f"{d.get('kind', '?')[:4]}:{d.get('choice')}"
                    for d in self.sched_decisions
                )
                where.append(f"decisions [{compact}]")
        suffix = f" [{', '.join(where)}]" if where else ""
        super().__init__(
            f"cluster deadlocked ({len(blocked)} ranks blocked): {detail}{suffix}"
        )


class LivelockError(SimulationError):
    """An explored interleaving exceeded its event budget without
    completing — the schedule explorer's livelock classification (the
    per-policy budget is far below the simulator's own ``max_steps``
    runaway valve)."""


class RankFailedError(SimulationError):
    """A rank's program raised (or its process died).

    In-process substrates (the simulator) attach the live exception as
    ``original``.  Cross-process substrates cannot ship the exception
    object reliably, so they carry ``original_type`` (the exception
    class name) and ``traceback_text`` (the worker's formatted
    traceback) instead.  ``events`` holds any structured fault events
    the failed rank recorded before dying; ``fault_phase`` /
    ``fault_stage`` name the pipeline phase and compositing stage of an
    injected crash (``None`` for organic failures).
    """

    def __init__(
        self,
        rank: int,
        original: BaseException | None = None,
        *,
        original_type: str | None = None,
        traceback_text: str | None = None,
        detail: str | None = None,
        events: list | None = None,
        fault_phase: str | None = None,
        fault_stage: int | None = None,
    ):
        self.rank = rank
        self.original = original
        self.original_type = original_type or (
            type(original).__name__ if original is not None else None
        )
        self.traceback_text = traceback_text
        self.events = list(events) if events else []
        self.fault_phase = fault_phase
        self.fault_stage = fault_stage
        if detail is None:
            detail = (
                repr(original)
                if original is not None
                else "died without reporting a result"
            )
        super().__init__(f"rank {rank} failed: {detail}")


class WireFormatError(ReproError, ValueError):
    """A serialized compositing message failed to parse or validate."""


class PartitionError(ReproError, ValueError):
    """A volume could not be partitioned as requested."""


class RenderError(ReproError, RuntimeError):
    """The ray caster was given inconsistent geometry."""


class CompositingError(ReproError, RuntimeError):
    """A compositing method violated one of its invariants."""


class ServingError(ReproError, RuntimeError):
    """Base class for render-service admission and lifecycle errors."""


class OverloadError(ServingError):
    """The service's bounded job queue is full.

    Base of the two overload dispositions: a job the service turned away
    at the door (:class:`JobRejectedError`) and a queued job evicted to
    make room for a higher-QoS arrival (:class:`JobShedError`).  Both
    carry the shedding ``policy`` that made the call so clients and the
    spool's result documents can report it.
    """

    def __init__(self, message: str, *, policy: str | None = None,
                 queue_limit: int | None = None):
        self.policy = policy
        self.queue_limit = queue_limit
        super().__init__(message)


class JobRejectedError(OverloadError):
    """Admission was refused: the queue is full and the policy says no.

    Raised synchronously from ``RenderService.submit`` under the
    ``reject`` policy (and under ``shed-lowest-qos`` when no queued job
    outranks the arrival) — the caller never receives a ticket, so
    nothing can hang.
    """


class JobShedError(OverloadError):
    """A queued job was evicted to admit a higher-QoS arrival.

    Delivered *through the shed job's ticket future* (never raised at
    the submitter), so a client blocked in ``ticket.result()`` wakes
    with this error instead of hanging forever.
    """


class JobCancelledError(ServingError):
    """A queued job was cancelled by service shutdown/drain.

    Resolved onto the ticket future of every admitted-but-unstarted job
    when the service closes, so abandoned tickets never leak an
    unresolved future.  The spool's drain path re-spools these jobs
    instead of writing a result document.
    """


class DeadlineExceededError(ServingError):
    """A job ran past its ``deadline_s`` budget.

    Queued jobs past deadline are dropped before execution; running jobs
    are checked at the engines' checkpoint/tile boundaries via the
    progress-feed hook.  ``elapsed`` and ``deadline_s`` (seconds) say by
    how much.
    """

    def __init__(self, message: str, *, deadline_s: float | None = None,
                 elapsed: float | None = None):
        self.deadline_s = deadline_s
        self.elapsed = elapsed
        super().__init__(message)


class LeaseReclaimExhausted(ServingError):
    """A spooled job's lease expired on its last allowed attempt.

    The spool buries the job with an ``ok: false`` result document
    naming this error instead of reclaiming it again.
    """
