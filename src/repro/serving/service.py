"""The render service: N sessions multiplexed over one bounded pool.

:class:`RenderService` is the concurrency layer above
:class:`~repro.pipeline.session.RenderSession`:

* **One shared :class:`WorkerPool`** (bounded threads) executes every
  session's jobs.  The simulator substrate releases the GIL poorly but
  models time, not wall time, so threads are the right grain: the pool
  bounds *admission* (how many renders are in flight), which is the
  resource the service actually rations.
* **Admission control** — a bounded job queue (``queue_limit``) in
  front of the pool with a shedding-policy lattice
  ``block < reject < shed-lowest-qos`` (:data:`SHED_POLICIES`): under
  ``block`` a full queue back-pressures the submitter; under ``reject``
  the arrival is turned away with a typed
  :class:`~repro.errors.JobRejectedError`; under ``shed-lowest-qos``
  the lowest-priority *queued* job is evicted (its ticket future
  resolves with :class:`~repro.errors.JobShedError` — a shed client
  never hangs) to admit a higher-QoS arrival.  Every overload decision
  lands as a structured ``repro.serve-control/1`` document in
  :attr:`RenderService.events`.
* **Per-job deadlines** — ``deadline_s`` (on the job or the submit
  call) starts the clock at admission: queued-past-deadline jobs are
  dropped before execution, and running sim jobs are aborted at the
  engines' checkpoint/tile boundaries via the progress-feed hook —
  both surfacing a typed :class:`~repro.errors.DeadlineExceededError`.
* **Per-session serialization** — jobs within one session run in
  submission order on the session's warm backend; different sessions
  run concurrently up to the pool bound.
* **Per-session QoS on the recovery lattice** — opening a session picks
  a quality class that maps onto the existing recovery policies
  (:data:`QOS_POLICIES`): a ``degrade``-QoS session's job that loses a
  rank comes back *fast* as a flagged partial frame
  (``result.degraded``), an ``available`` session replays every rank
  from stage 0 and a ``lossless`` one from the last common checkpoint —
  both bit-identical — and a ``strict`` session surfaces the typed
  error.  A job may still override its own ``recovery`` explicitly.
  The same classes double as the shedding priority
  (:data:`QOS_SHED_PRIORITY`).
* **Per-job perf scoping** — each job runs under its own
  :class:`repro.perf.PerfRegistry` scope, so concurrent sessions never
  interleave counters; the report lands on the ticket.
* **Progressive delivery** — sim-substrate jobs get a
  :class:`~repro.cluster.progress.ProgressFeed` automatically;
  :meth:`JobTicket.stream` yields bit-exact partial frames while the
  render is still in flight.
* **Graceful drain** — :meth:`RenderService.close` refuses new
  admissions, finishes in-flight jobs, and *cancels* queued ones
  (futures resolved with :class:`~repro.errors.JobCancelledError`,
  tickets returned so a spool front end can re-spool them); with
  ``drain=False`` running jobs are abandoned after a bounded thread
  join instead of awaited.
"""

from __future__ import annotations

import itertools
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import InvalidStateError
from dataclasses import dataclass, field, replace
from typing import Any, Iterator, Optional

from .. import perf
from ..cluster.progress import ProgressEvent, ProgressFeed
from ..errors import (
    ConfigurationError,
    DeadlineExceededError,
    JobCancelledError,
    JobRejectedError,
    JobShedError,
)
from ..pipeline.config import RunConfig
from ..pipeline.session import RenderJob, RenderSession
from ..pipeline.system import SystemResult

__all__ = [
    "SERVE_CONTROL_SCHEMA",
    "DEFAULT_QOS",
    "JobTicket",
    "QOS_POLICIES",
    "QOS_SHED_PRIORITY",
    "RenderService",
    "SHED_POLICIES",
    "SessionHandle",
    "WorkerPool",
]

#: Schema tag of one overload/deadline/drain control document: its own
#: tag, since it carries no part or pixels and never decodes as an event.
SERVE_CONTROL_SCHEMA = "repro.serve-control/1"

#: QoS class -> recovery policy on the lattice
#: ``abort < degrade < respawn < checkpoint-resume``.
QOS_POLICIES = {
    "strict": "abort",  # fail loudly; never serve a partial frame
    "degrade": "degrade",  # flagged partial frame fast, never an error
    "available": "respawn",  # bit-identical replay from stage 0, no snapshots
    "lossless": "checkpoint-resume",  # replay from the last common snapshot
}

DEFAULT_QOS = "degrade"

#: Shedding priority per QoS class — *lower sheds first* under
#: ``shed-lowest-qos``.  ``degrade`` tolerates partial frames (the
#: cheapest client contract, so the first to go under overload);
#: ``lossless`` pays for checkpoints and is protected the hardest.
QOS_SHED_PRIORITY = {
    "degrade": 0,
    "available": 1,
    "strict": 2,
    "lossless": 3,
}

#: The shedding-policy lattice, gentlest first: ``block`` back-pressures
#: the submitter, ``reject`` turns arrivals away at the door,
#: ``shed-lowest-qos`` additionally evicts queued low-QoS work to admit
#: higher-QoS arrivals (falling back to reject among equals).
SHED_POLICIES = ("block", "reject", "shed-lowest-qos")


class WorkerPool:
    """Bounded shared executor for render jobs.

    A thin, countable wrapper over :class:`ThreadPoolExecutor`: at most
    ``max_workers`` renders progress at once; excess submissions queue
    in FIFO order.  One pool is shared by every session of a service.
    """

    def __init__(self, max_workers: int = 2):
        if max_workers < 1:
            raise ConfigurationError(f"worker pool needs >= 1 worker, got {max_workers}")
        self.max_workers = max_workers
        self._executor = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-render"
        )
        self._lock = threading.Lock()
        self.jobs_submitted = 0
        self.jobs_active = 0
        self.peak_active = 0

    def submit(self, fn, *args: Any, **kwargs: Any) -> Future:
        with self._lock:
            self.jobs_submitted += 1

        def _tracked() -> Any:
            with self._lock:
                self.jobs_active += 1
                self.peak_active = max(self.peak_active, self.jobs_active)
            try:
                return fn(*args, **kwargs)
            finally:
                with self._lock:
                    self.jobs_active -= 1

        return self._executor.submit(_tracked)

    def shutdown(
        self,
        wait: bool = True,
        *,
        timeout: Optional[float] = None,
        cancel_futures: bool = False,
    ) -> bool:
        """Stop the executor; returns True when every thread exited.

        ``timeout`` bounds the total join wall time (``wait`` is then
        implied): a wedged render cannot hang the closing process
        forever.  ``cancel_futures`` drops work the executor has not
        started yet (the abandon path — the service resolves the
        corresponding tickets itself, so nothing leaks).
        """
        self._executor.shutdown(
            wait=wait and timeout is None, cancel_futures=cancel_futures
        )
        if timeout is None:
            return True
        deadline = time.monotonic() + timeout
        for thread in list(self._executor._threads):
            thread.join(max(0.0, deadline - time.monotonic()))
        return not any(t.is_alive() for t in self._executor._threads)


@dataclass
class SessionHandle:
    """One client session registered with the service."""

    name: str
    session: RenderSession
    qos: str
    #: Serializes this session's jobs (its backend is single-tenant).
    lock: threading.Lock = field(default_factory=threading.Lock)


class JobTicket:
    """Handle for one submitted job: stream progress, then collect."""

    _ids = itertools.count(1)

    def __init__(
        self,
        session: str,
        job: RenderJob,
        feed: Optional[ProgressFeed],
        qos: str,
        deadline_s: Optional[float] = None,
    ):
        self.job_id = f"job-{next(self._ids)}"
        self.session = session
        self.job = job
        self.feed = feed
        self.qos = qos
        self.future: Future = Future()
        #: The job's scoped perf report, set on completion.
        self.perf_report: Optional[dict] = None
        #: Admission-time wall reference for the deadline clock.
        self.submitted_at = time.monotonic()
        self.deadline_s = deadline_s
        self.deadline_at = (
            None if deadline_s is None else self.submitted_at + float(deadline_s)
        )
        #: queued -> running -> done | failed | deadline, or it ends shed
        #: (queued) or cancelled; the service writes it under its lock.
        self.state = "queued"

    def stream(self, timeout: Optional[float] = None) -> Iterator[ProgressEvent]:
        """Yield the job's progress events as they happen (see
        :meth:`~repro.cluster.progress.ProgressFeed.stream`)."""
        if self.feed is None:
            return iter(())
        return self.feed.stream(timeout)

    def result(self, timeout: Optional[float] = None) -> SystemResult:
        """Block for the job's :class:`SystemResult` (raises what it raised)."""
        return self.future.result(timeout)

    def done(self) -> bool:
        return self.future.done()

    # ---- internal ----------------------------------------------------------
    def _resolve(self, *, result=None, exc: Optional[BaseException] = None) -> bool:
        """Settle the future exactly once (races with the worker thread
        are benign: first writer wins, the loser is a no-op)."""
        try:
            if exc is not None:
                self.future.set_exception(exc)
            else:
                self.future.set_result(result)
            return True
        except InvalidStateError:
            return False

    def _abandon(self, exc: BaseException) -> None:
        """Resolve + close the stream so no consumer of this ticket —
        ``result()``, ``stream()``, or a spool writer — can hang."""
        self._resolve(exc=exc)
        if self.feed is not None:
            self.feed.close()


class RenderService:
    """Multiplex concurrent render sessions over one bounded pool.

    ``queue_limit`` bounds the *waiting* line (jobs admitted but not yet
    executing); ``None`` keeps the legacy unbounded queue.  When the
    line is full, ``shed_policy`` (one of :data:`SHED_POLICIES`) decides
    between back-pressure, rejection, and QoS-based eviction.
    """

    def __init__(
        self,
        base_config: RunConfig,
        *,
        max_workers: int = 2,
        queue_limit: Optional[int] = None,
        shed_policy: str = "block",
    ):
        if shed_policy not in SHED_POLICIES:
            raise ConfigurationError(
                f"unknown shed policy {shed_policy!r}; "
                f"available: {list(SHED_POLICIES)}"
            )
        if queue_limit is not None and queue_limit < 1:
            raise ConfigurationError(
                f"queue_limit must be >= 1 (or None for unbounded), got {queue_limit}"
            )
        self.base_config = base_config
        self.pool = WorkerPool(max_workers)
        self.queue_limit = queue_limit
        self.shed_policy = shed_policy
        self._sessions: dict[str, SessionHandle] = {}
        # Reentrant: _admit holds it while _record re-enters for the
        # structured shed/reject event.
        self._lock = threading.RLock()
        self._admission = threading.Condition(self._lock)
        self._queued: list[JobTicket] = []
        self._running: set[JobTicket] = set()
        self._closed = False
        #: Structured ``repro.serve-control/1`` documents, one per
        #: overload/deadline/drain decision (no pixel payloads).
        self.events: list[dict] = []
        self.shed_jobs = 0
        self.rejected_jobs = 0
        self.deadline_jobs = 0
        self.cancelled_jobs = 0

    # ---- introspection -----------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Jobs admitted but not yet executing."""
        with self._lock:
            return len(self._queued)

    @property
    def active_jobs(self) -> int:
        with self._lock:
            return len(self._running)

    def _record(self, kind: str, ticket: Optional[JobTicket] = None, **extra) -> dict:
        doc: dict[str, Any] = {
            "schema": SERVE_CONTROL_SCHEMA,
            "kind": kind,
            "policy": self.shed_policy,
            "queue_limit": self.queue_limit,
            "t_wall": time.time(),
        }
        if ticket is not None:
            doc.update(
                job_id=ticket.job_id,
                session=ticket.session,
                qos=ticket.qos,
                label=ticket.job.label,
            )
        doc.update(extra)
        with self._lock:
            self.events.append(doc)
        return doc

    # ---- sessions ----------------------------------------------------------
    def open_session(
        self,
        name: str,
        *,
        qos: str = DEFAULT_QOS,
        config: Optional[RunConfig] = None,
        backend: Optional[str] = None,
    ) -> SessionHandle:
        """Register a session; idempotent for an existing ``name``/``qos``."""
        if qos not in QOS_POLICIES:
            raise ConfigurationError(
                f"unknown QoS class {qos!r}; available: {sorted(QOS_POLICIES)}"
            )
        with self._lock:
            if self._closed:
                raise ConfigurationError("render service is shut down")
            found = self._sessions.get(name)
            if found is not None:
                if found.qos != qos:
                    raise ConfigurationError(
                        f"session {name!r} already open with QoS {found.qos!r}"
                    )
                return found
            cfg = config if config is not None else self.base_config
            handle = SessionHandle(
                name=name,
                session=RenderSession(cfg, backend=backend, name=name),
                qos=qos,
            )
            self._sessions[name] = handle
            return handle

    # ---- admission ---------------------------------------------------------
    def _shed_victim(self, priority: int) -> Optional[JobTicket]:
        """The queued ticket to evict for an arrival at ``priority``:
        lowest shed-priority strictly below the arrival's, newest among
        equals (the most recently queued low-QoS job loses the least
        invested waiting time).  ``None`` when nobody outranks."""
        victim: Optional[JobTicket] = None
        victim_pri = priority
        for ticket in self._queued:
            pri = QOS_SHED_PRIORITY[ticket.qos]
            if pri < victim_pri or (victim is not None and pri == victim_pri):
                victim, victim_pri = ticket, pri
        return victim

    def _admit(self, ticket: JobTicket) -> None:
        """Apply the shedding policy; on return the ticket is queued.

        Raises :class:`JobRejectedError` when the policy turns the
        arrival away.  Must be called with the admission lock held.
        """
        if self.queue_limit is None:
            self._queued.append(ticket)
            return
        while len(self._queued) >= self.queue_limit:
            if self.shed_policy == "block":
                # Back-pressure: park the submitter until the queue
                # drains (a worker starting a job frees a slot).
                self._admission.wait()
                if self._closed:
                    raise ConfigurationError("render service is shut down")
                continue
            if self.shed_policy == "shed-lowest-qos":
                victim = self._shed_victim(QOS_SHED_PRIORITY[ticket.qos])
                if victim is not None:
                    self._queued.remove(victim)
                    self.shed_jobs += 1
                    victim.state = "shed"
                    victim._abandon(
                        JobShedError(
                            f"job {victim.job_id} ({victim.qos}) shed for an "
                            f"arriving {ticket.qos} job (queue full at "
                            f"{self.queue_limit})",
                            policy=self.shed_policy,
                            queue_limit=self.queue_limit,
                        ),
                    )
                    self._record(
                        "shed", victim,
                        shed_for=ticket.job_id, shed_for_qos=ticket.qos,
                    )
                    continue
            # "reject", or "shed-lowest-qos" with nobody to outrank.
            self.rejected_jobs += 1
            self._record("rejected", ticket)
            raise JobRejectedError(
                f"job queue full ({len(self._queued)}/{self.queue_limit}) "
                f"and policy {self.shed_policy!r} refuses the "
                f"{ticket.qos}-QoS arrival",
                policy=self.shed_policy,
                queue_limit=self.queue_limit,
            )
        self._queued.append(ticket)

    # ---- jobs --------------------------------------------------------------
    def submit(
        self,
        session: str = "default",
        job: Optional[RenderJob] = None,
        *,
        stream: bool = True,
        deadline_s: Optional[float] = None,
        **deltas: Any,
    ) -> JobTicket:
        """Queue one job on ``session`` (opened with default QoS if new).

        ``stream=True`` (sim substrate only) attaches a fresh
        :class:`ProgressFeed` when the job does not carry one.  The
        session's QoS supplies the recovery policy unless the job sets
        its own.  ``deadline_s`` (or the job's own) arms the wall-clock
        deadline from this call.  Returns a :class:`JobTicket` once the
        job is admitted — immediately unless the queue is full under the
        ``block`` policy; a full queue under ``reject``/``shed-lowest-qos``
        raises :class:`~repro.errors.JobRejectedError` instead.
        """
        with self._lock:
            handle = self._sessions.get(session)
        if handle is None:
            handle = self.open_session(session)
        if job is None:
            job = RenderJob(deltas=deltas)
        elif deltas:
            raise ConfigurationError("pass either a RenderJob or config deltas, not both")
        if job.recovery is None:
            job = replace(job, recovery=QOS_POLICIES[handle.qos])
        feed = job.progress
        if feed is None and stream and handle.session.backend.name == "sim":
            feed = ProgressFeed()
            job = replace(job, progress=feed)
        if deadline_s is None:
            deadline_s = job.deadline_s
        ticket = JobTicket(session, job, feed, handle.qos, deadline_s=deadline_s)
        with self._admission:
            if self._closed:
                raise ConfigurationError("render service is shut down")
            self._admit(ticket)
        try:
            self.pool.submit(self._execute, handle, ticket)
        except RuntimeError as err:
            # Admission raced a concurrent close past the pool's
            # shutdown: settle the ticket and refuse, don't leak it.
            with self._admission:
                if ticket in self._queued:
                    self._queued.remove(ticket)
                self._cancel([ticket], "cancelled: service closing")
            raise ConfigurationError("render service is shut down") from err
        return ticket

    def _execute(self, handle: SessionHandle, ticket: JobTicket) -> None:
        with self._admission:
            if ticket.state != "queued":
                return  # shed or cancelled while waiting; future settled
            ticket.state = "running"
            try:
                self._queued.remove(ticket)
            except ValueError:
                pass
            self._running.add(ticket)
            self._admission.notify_all()  # a queue slot freed up
        try:
            if (
                ticket.deadline_at is not None
                and time.monotonic() >= ticket.deadline_at
            ):
                # Queued past its deadline: drop before execution.
                raise DeadlineExceededError(
                    f"job {ticket.job_id} spent its {ticket.deadline_s}s "
                    "deadline in the queue; dropped before execution",
                    deadline_s=ticket.deadline_s,
                    elapsed=time.monotonic() - ticket.submitted_at,
                )
            if ticket.feed is not None and ticket.deadline_at is not None:
                # Running-job enforcement: the engines emit at exactly
                # their checkpoint/tile boundaries, so the feed's
                # deadline hook aborts there.
                ticket.feed.set_deadline(ticket.deadline_at, ticket.deadline_s)
            with handle.lock:  # one job at a time per session
                with perf.scope() as registry:
                    result = handle.session.submit(ticket.job)
                ticket.perf_report = registry.report()
        except BaseException as err:  # noqa: BLE001 - future carries it
            late = isinstance(err, DeadlineExceededError)
            self._finish(ticket, "deadline" if late else "failed", exc=err)
        else:
            self._finish(ticket, "done", result=result)
        finally:
            # The system layer closes the feed after a run; close again
            # here (idempotent) so a pre-run failure can't hang a stream.
            if ticket.feed is not None:
                ticket.feed.close()
            with self._admission:
                self._running.discard(ticket)
                self._admission.notify_all()

    def _finish(self, ticket: JobTicket, state: str, *, result=None, exc=None) -> None:
        """End a running ticket in ``state``, then settle its future.  A
        ticket :meth:`close` abandoned first stays ``cancelled``."""
        with self._lock:
            if ticket.state != "running":
                return
            ticket.state = state
            if state == "deadline":
                self.deadline_jobs += 1
                self._record("deadline", ticket, deadline_s=ticket.deadline_s, detail=str(exc))
        ticket._resolve(result=result, exc=exc)

    def _cancel(self, tickets, reason: str, **extra: Any) -> list[JobTicket]:
        """End every queued or running ticket in ``tickets`` as
        ``cancelled``: counted once and recorded once under the lock,
        then settled with :class:`~repro.errors.JobCancelledError`."""
        with self._lock:
            live = [t for t in tickets if t.state in ("queued", "running")]
            for ticket in live:
                ticket.state = "cancelled"
                self.cancelled_jobs += 1
                self._record("cancelled", ticket, **extra)
        for ticket in live:
            ticket._abandon(JobCancelledError(f"job {ticket.job_id} {reason}"))
        return live

    # ---- lifecycle ---------------------------------------------------------
    def close(
        self, *, drain: bool = True, timeout: Optional[float] = None
    ) -> list[JobTicket]:
        """Stop the service; returns the queued tickets it cancelled.

        New admissions are refused immediately (blocked ``block``-policy
        submitters wake and raise).  Queued-but-unstarted jobs are
        *cancelled* — their futures resolve with
        :class:`~repro.errors.JobCancelledError` and the tickets are
        returned so a spool front end can re-spool them.  In-flight jobs
        are awaited to completion under ``drain=True`` (bounded by
        ``timeout`` when given); under ``drain=False`` the pool is
        abandoned after a bounded thread join (default 10 s) and any
        ticket still unresolved is settled with
        :class:`~repro.errors.JobCancelledError` so nothing leaks.
        """
        with self._admission:
            already_closed = self._closed
            self._closed = True
            # Inside the lock: a pool worker reaching _execute now sees
            # the state flip and skips, instead of racing the cancellation.
            cancelled = self._cancel(
                self._queued,
                f"cancelled: service closing ({'drain' if drain else 'abandon'})",
                drain=drain,
            )
            self._queued.clear()
            handles = list(self._sessions.values())
            self._sessions.clear()
            self._admission.notify_all()  # wake blocked submitters
        if not already_closed:
            self._record("drain", None, drain=drain, cancelled=len(cancelled))
        if drain:
            self.pool.shutdown(wait=True, timeout=timeout)
        elif not self.pool.shutdown(
            wait=True,
            timeout=10.0 if timeout is None else timeout,
            cancel_futures=True,
        ):
            # A render still running after the bounded join must not
            # leak an unsettled future.
            self._cancel(self._running, "abandoned: service closed without drain", drain=False)
        for handle in handles:
            handle.session.close()
        return cancelled

    def __enter__(self) -> "RenderService":
        return self

    def __exit__(self, *exc) -> None:
        self.close(drain=True)
