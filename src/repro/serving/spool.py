"""File-spool front end for the render service (no network required).

The service is a library; this module gives it a process boundary that
works anywhere the test-suite does: a *spool directory*.  Clients drop
job request documents (``repro.serve-job/1``) into ``<spool>/jobs/``;
a serving process claims them (atomic rename into ``<spool>/work/``),
renders them through a shared :class:`~repro.serving.service.
RenderService`, streams every progress event as a ``repro.serve-event/4``
JSON line (pixels as one RLE body) into ``<spool>/out/<job>.events.jsonl``,
and finishes with ``<spool>/out/<job>.result.json`` plus the final image
planes in ``<spool>/out/<job>.final.npz``.

An idle server does not sleep out a poll period: it waits on the
spool's *doorbell*, a FIFO at ``<spool>/doorbell`` that
:func:`submit_job` rings after the job file is in place.  The bell is
only a hint — the job file is the truth.  Every wake-up, by ring or by
timeout, does the same ``jobs/`` listing and atomic-rename claim, so a
lost ring (no FIFO, no listener, a full pipe, a platform without
``os.mkfifo``) costs at most one ``poll`` period and never a job.

Crash-survivability contract:

* **Claims are leases.**  Claiming renames ``jobs/<id>.json`` to
  ``work/<id>.a1.json`` (attempt 1) and drops a heartbeat-stamped
  ``work/<id>.a1.lease.json`` beside it, refreshed by a server-side
  heartbeat thread every ``lease_s / 3`` (0.2 s at least).  A server
  that dies (SIGKILL, OOM, power loss) simply stops heartbeating.
* **Orphan reclamation.**  Any serving process — a restart, or a
  competitor sharing the spool — reclaims a work item whose lease is
  older than ``lease_s`` by atomically renaming it to the next attempt
  (``work/<id>.aN.json`` → ``work/<id>.a(N+1).json``); the rename has
  exactly one winner, so a job is never executed by two reclaimers at
  once.  After ``max_attempts`` expired leases the job is buried with a
  structured failure result instead of looping forever.
* **At most one result.**  ``<id>.result.json`` is created with an
  *exclusive* link-into-place: if a presumed-dead server was merely
  slow and finishes late, exactly one attempt's document lands and the
  loser is a no-op.  The final ``.npz`` may be rewritten by the loser —
  harmlessly, because renders are deterministic and bit-identical.
  Competing event streams from a slow loser can tear
  ``<id>.events.jsonl`` lines; readers drop a torn trailing record
  (see :func:`read_events`).
* **Whole-run resume.**  A reclaimed ``checkpoint-resume`` job (QoS
  ``lossless``) re-renders from ``work/<id>.ckpt/`` via
  :class:`~repro.cluster.recovery.DiskCheckpointStore` and lockstep
  resume — all ranks restart together, the one replay that is
  protocol-safe on every substrate.
* **Graceful drain.**  On SIGTERM (or a ``stop_event``) the loop stops
  claiming, lets in-flight renders finish, and re-spools queued-but-
  unstarted claims back into ``jobs/`` so nothing is lost and nothing
  is double-rendered.

All document writes are atomic (temp file + ``os.replace``), so a
concurrent submitter/poller never observes a half-written document.
"""

from __future__ import annotations

import json
import os
import random
import re
import select
import shutil
import signal
import stat
import threading
import time
import uuid
from typing import Any, Optional

import numpy as np

from ..cluster.faults import FaultPlan
from ..cluster.recovery import DiskCheckpointStore
from ..errors import (
    ConfigurationError,
    JobCancelledError,
    LeaseReclaimExhausted,
    OverloadError,
)
from ..pipeline.config import RunConfig
from ..pipeline.session import RenderJob
from .service import DEFAULT_QOS, QOS_POLICIES, RenderService

__all__ = [
    "JOB_SCHEMA",
    "LEASE_SCHEMA",
    "RESULT_SCHEMA",
    "load_result",
    "read_events",
    "serve",
    "submit_job",
    "wait_for_result",
]

JOB_SCHEMA = "repro.serve-job/1"
RESULT_SCHEMA = "repro.serve-result/1"
LEASE_SCHEMA = "repro.serve-lease/1"

_JOBS, _WORK, _OUT = "jobs", "work", "out"
_DOORBELL = "doorbell"

#: ``work/`` entry for attempt N of a job: ``<job_id>.aN.json``.
_WORK_RE = re.compile(r"^(?P<jid>.+)\.a(?P<n>\d+)\.json$")


def _ensure_layout(root: str) -> None:
    for sub in (_JOBS, _WORK, _OUT):
        os.makedirs(os.path.join(root, sub), exist_ok=True)


def _atomic_write_text(path: str, text: str) -> None:
    tmp = f"{path}.tmp-{os.getpid()}-{uuid.uuid4().hex[:8]}"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _exclusive_write_text(path: str, text: str) -> bool:
    """Create ``path`` atomically with ``text``; False if it already
    exists.  This is the at-most-one-result primitive: the content
    appears fully formed (hard link of a complete temp file) and
    creation has exactly one winner across processes."""
    tmp = f"{path}.tmp-{os.getpid()}-{uuid.uuid4().hex[:8]}"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    try:
        os.link(tmp, path)
        return True
    except FileExistsError:
        return False
    except OSError:
        # Filesystem without hard links: O_EXCL create (content is not
        # atomic, but creation still has one winner).
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        return True
    finally:
        try:
            os.unlink(tmp)
        except OSError:
            pass


# ---- doorbell ---------------------------------------------------------------
def _ring_doorbell(root: str) -> None:
    """Wake a server idling on the spool: one non-blocking byte.

    Every failure is swallowed — no FIFO, no server holding the read
    end (``ENXIO``), a full pipe — because the server's next timeout
    finds the job file anyway.
    """
    try:
        fd = os.open(os.path.join(root, _DOORBELL), os.O_WRONLY | os.O_NONBLOCK)
    except OSError:
        return
    try:
        os.write(fd, b"\0")
    except OSError:
        pass
    finally:
        os.close(fd)


class _Doorbell:
    """Server end of the spool doorbell: wait for a ring or a timeout.

    The FIFO is opened read-write: holding a write end ourselves means
    the pipe never reports hang-up when the last submitter closes, so
    an idle server blocks in ``select`` instead of spinning on EOF.
    Where the FIFO cannot be had (no ``os.mkfifo``, a filesystem that
    refuses it, something else squatting on the name) :meth:`wait` is
    the plain timeout.  A server sharing the spool unlinks the FIFO on a
    clean exit; the survivor's next :meth:`wait` hangs a fresh one, so
    it loses at most one poll period, not every later ring.
    """

    def __init__(self, root: str):
        self._path = os.path.join(root, _DOORBELL)
        self._fd = self._open()

    def _open(self) -> Optional[int]:
        try:
            try:
                os.mkfifo(self._path)
            except FileExistsError:
                pass  # left by a killed server, or a live one sharing the spool
            fd = os.open(self._path, os.O_RDWR | os.O_NONBLOCK)
        except (AttributeError, OSError):
            return None
        if stat.S_ISFIFO(os.fstat(fd).st_mode):
            return fd
        os.close(fd)
        return None

    def _hung(self) -> bool:
        """Whether the path still names the pipe this end holds."""
        try:
            return os.path.samestat(os.fstat(self._fd), os.stat(self._path))
        except OSError:
            return False

    def wait(self, timeout: float) -> None:
        """Return once the bell has rung (drained here) or ``timeout`` passed."""
        if self._fd is not None and not self._hung():
            os.close(self._fd)
            self._fd = self._open()
        if self._fd is None:
            time.sleep(timeout)
        elif select.select([self._fd], [], [], timeout)[0]:
            try:
                while len(os.read(self._fd, 4096)) == 4096:
                    pass
            except OSError:
                pass  # a competing server on this spool drained it first

    def close(self) -> None:
        """Release the pipe and unlink it: a cleanly stopped spool holds
        only regular files."""
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None
            try:
                os.unlink(self._path)
            except OSError:
                pass


# ---- client side ------------------------------------------------------------
def submit_job(
    root: str,
    *,
    session: str = "default",
    qos: str = DEFAULT_QOS,
    deltas: Optional[dict[str, Any]] = None,
    fault_plan: Optional[FaultPlan] = None,
    job_id: Optional[str] = None,
    deadline_s: Optional[float] = None,
) -> str:
    """Drop one job request into the spool; returns its job id.

    ``deadline_s`` is a wall-clock budget counted from the moment a
    server admits the job (not from submission — the spool may sit
    unserved indefinitely).
    """
    if qos not in QOS_POLICIES:
        raise ConfigurationError(
            f"unknown QoS class {qos!r}; available: {sorted(QOS_POLICIES)}"
        )
    _ensure_layout(root)
    if job_id is None:
        job_id = f"job-{uuid.uuid4().hex[:12]}"
    doc = {
        "schema": JOB_SCHEMA,
        "job_id": job_id,
        "session": session,
        "qos": qos,
        "deltas": dict(deltas or {}),
        "fault_plan": None if fault_plan is None else fault_plan.to_dict(),
        "deadline_s": deadline_s,
    }
    _atomic_write_text(
        os.path.join(root, _JOBS, f"{job_id}.json"), json.dumps(doc, indent=2)
    )
    _ring_doorbell(root)  # after the rename: the job file is the truth
    return job_id


def load_result(root: str, job_id: str) -> Optional[dict[str, Any]]:
    """The job's ``repro.serve-result/1`` document, or ``None`` if pending."""
    path = os.path.join(root, _OUT, f"{job_id}.result.json")
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return None


def wait_for_result(
    root: str,
    job_id: str,
    *,
    timeout: float = 60.0,
    poll: float = 0.005,
    max_poll: float = 0.5,
) -> dict[str, Any]:
    """Poll the spool until the job's result document lands.

    The poll interval backs off exponentially from ``poll`` to
    ``max_poll`` with +/-20% jitter: a short job's waiter returns within
    milliseconds of the result (one ``stat`` per poll), and many waiters
    on one spool don't hammer the filesystem in lockstep while a long
    render runs.
    """
    deadline = time.monotonic() + timeout
    delay = poll
    while True:
        doc = load_result(root, job_id)
        if doc is not None:
            return doc
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError(f"no result for {job_id!r} within {timeout}s")
        time.sleep(min(delay * random.uniform(0.8, 1.2), max_poll, remaining))
        delay = min(delay * 1.6, max_poll)


def read_events(root: str, job_id: str) -> list[dict[str, Any]]:
    """The job's streamed serve-event documents, in emission order.

    Tolerates a torn trailing record: a server killed (or still alive)
    mid-write leaves a truncated final line, which is dropped rather
    than raised — every *complete* line is still returned.  A malformed
    line anywhere else is real corruption and raises.
    """
    path = os.path.join(root, _OUT, f"{job_id}.events.jsonl")
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except FileNotFoundError:
        return []
    events: list[dict[str, Any]] = []
    last = len(lines) - 1
    for i, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        try:
            events.append(json.loads(line))
        except json.JSONDecodeError:
            if i == last:
                break  # torn final record from an interrupted writer
            raise
    return events


# ---- leases -----------------------------------------------------------------
def _lease_path(root: str, job_id: str, attempt: int) -> str:
    return os.path.join(root, _WORK, f"{job_id}.a{attempt}.lease.json")


def _write_lease(root: str, job_id: str, attempt: int, lease_s: float) -> None:
    doc = {
        "schema": LEASE_SCHEMA,
        "job_id": job_id,
        "attempt": attempt,
        "owner_pid": os.getpid(),
        "heartbeat_at": time.time(),
        "lease_s": lease_s,
    }
    _atomic_write_text(_lease_path(root, job_id, attempt), json.dumps(doc))


def _read_lease(root: str, job_id: str, attempt: int) -> Optional[dict[str, Any]]:
    try:
        with open(_lease_path(root, job_id, attempt), encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None


def _drop_leases(root: str, job_id: str) -> None:
    work_dir = os.path.join(root, _WORK)
    try:
        names = os.listdir(work_dir)
    except OSError:
        return
    for name in names:
        if name.startswith(f"{job_id}.a") and name.endswith(".lease.json"):
            try:
                os.remove(os.path.join(work_dir, name))
            except OSError:
                pass


def _cleanup_work(root: str, work_path: str, job_id: str) -> None:
    """Retire a finished work item: claim file, leases, checkpoints."""
    try:
        os.remove(work_path)
    except OSError:
        pass
    _drop_leases(root, job_id)
    shutil.rmtree(os.path.join(root, _WORK, f"{job_id}.ckpt"), ignore_errors=True)


def _respool(root: str, work_path: str, job_id: str) -> bool:
    """Return a claimed-but-unrendered job to ``jobs/`` (drain path).

    Checkpoints are kept: if the job had started an earlier attempt its
    next claim resumes from them.  Returns False when the work file is
    gone (another process already reclaimed or finished it).
    """
    try:
        os.replace(work_path, os.path.join(root, _JOBS, f"{job_id}.json"))
    except OSError:
        return False
    _drop_leases(root, job_id)
    return True


# ---- server side ------------------------------------------------------------
def _parse_job(request: Any) -> tuple[str, str, dict, Optional[FaultPlan], Any]:
    """``(session, qos, deltas, fault_plan, deadline_s)`` of a job request
    document; :class:`ConfigurationError` names what is malformed."""
    if not isinstance(request, dict):
        raise ConfigurationError(f"job request is a JSON {type(request).__name__}, not an object")
    if request.get("schema") != JOB_SCHEMA:
        raise ConfigurationError(
            f"unsupported job schema {request.get('schema')!r} (expected {JOB_SCHEMA!r})"
        )
    qos = str(request.get("qos", DEFAULT_QOS))
    if qos not in QOS_POLICIES:
        raise ConfigurationError(f"unknown QoS class {qos!r}; available: {sorted(QOS_POLICIES)}")
    deltas = request.get("deltas") or {}
    deadline_s = request.get("deadline_s")
    if not isinstance(deltas, dict):
        raise ConfigurationError(f"job deltas must be an object, got {deltas!r}")
    if deadline_s is not None and type(deadline_s) not in (int, float):
        raise ConfigurationError(f"deadline_s must be a number or null, got {deadline_s!r}")
    plan_doc = request.get("fault_plan")
    try:
        plan = None if plan_doc is None else FaultPlan.from_dict(plan_doc)
    except (AttributeError, KeyError, TypeError, ValueError) as err:
        raise ConfigurationError(f"malformed fault_plan: {err}") from err
    return str(request.get("session", "default")), qos, deltas, plan, deadline_s


def _reject(root: str, work_path: str, job_id: str, attempt: int, err: Exception, **where) -> bool:
    """Answer a claimed job that will not run with an ``ok: false``
    result document and retire its claim; returns False (not started)."""
    doc = {"schema": RESULT_SCHEMA, "job_id": job_id, **where, "attempt": attempt,
           "ok": False, "error": type(err).__name__, "detail": str(err)}
    _exclusive_write_text(
        os.path.join(root, _OUT, f"{job_id}.result.json"), json.dumps(doc, indent=2)
    )
    _cleanup_work(root, work_path, job_id)
    return False


def _claim_next(root: str) -> Optional[tuple[str, str, int]]:
    """Atomically claim the oldest pending job file.

    Returns ``(work_path, job_id, attempt)`` — the claim renames
    ``jobs/<id>.json`` to ``work/<id>.a1.json`` so a crashed server's
    orphan carries its attempt number in the name.
    """
    jobs_dir = os.path.join(root, _JOBS)
    try:
        names = sorted(os.listdir(jobs_dir))
    except OSError:
        return None
    for name in names:
        if not name.endswith(".json"):
            continue
        job_id = name[: -len(".json")]
        src = os.path.join(jobs_dir, name)
        dst = os.path.join(root, _WORK, f"{job_id}.a1.json")
        try:
            os.replace(src, dst)
        except OSError:
            continue  # another server won the claim
        return dst, job_id, 1
    return None


def _reclaim_expired(
    root: str,
    *,
    lease_s: float,
    max_attempts: int,
    skip: "set[str] | frozenset[str]" = frozenset(),
) -> list[tuple[str, str, int]]:
    """Reclaim work items whose lease expired; returns new claims.

    Each reclaim renames ``work/<id>.aN.json`` to
    ``work/<id>.a(N+1).json`` — atomic, one winner — so competing
    reclaimers never both execute a job.  Items whose result already
    exists are retired; items past ``max_attempts`` are buried with a
    structured failure document.
    """
    work_dir = os.path.join(root, _WORK)
    try:
        names = sorted(os.listdir(work_dir))
    except OSError:
        return []
    claims: list[tuple[str, str, int]] = []
    now = time.time()
    for name in names:
        if name.endswith(".lease.json"):
            continue
        match = _WORK_RE.match(name)
        if match is None:
            continue
        job_id, attempt = match.group("jid"), int(match.group("n"))
        if job_id in skip:
            continue
        path = os.path.join(work_dir, name)
        if os.path.exists(os.path.join(root, _OUT, f"{job_id}.result.json")):
            # Finished, but the owner died before retiring the claim.
            _cleanup_work(root, path, job_id)
            continue
        lease = _read_lease(root, job_id, attempt)
        if lease is not None:
            age = now - float(lease.get("heartbeat_at", 0.0))
        else:
            # Crashed between claim-rename and first lease write: age
            # the bare work file by mtime.
            try:
                age = now - os.path.getmtime(path)
            except OSError:
                continue
        if age < lease_s:
            continue
        if attempt >= max_attempts:
            _reject(root, path, job_id, attempt, LeaseReclaimExhausted(
                f"lease expired on attempt {attempt}/{max_attempts}; giving up"
            ))
            continue
        new_path = os.path.join(work_dir, f"{job_id}.a{attempt + 1}.json")
        try:
            os.replace(path, new_path)
        except OSError:
            continue  # another reclaimer won
        try:
            os.remove(_lease_path(root, job_id, attempt))
        except OSError:
            pass
        claims.append((new_path, job_id, attempt + 1))
    return claims


def _stream_events(root: str, job_id: str, session: str, ticket) -> None:
    """Spool every progress event as one JSON line (blocks until closed)."""
    path = os.path.join(root, _OUT, f"{job_id}.events.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        for event in ticket.stream():
            fh.write(json.dumps(event.to_dict(job_id=job_id, session=session)))
            fh.write("\n")
            fh.flush()


def _job_writer(
    root: str,
    job_id: str,
    session: str,
    qos: str,
    ticket,
    work_path: Optional[str] = None,
    attempt: int = 1,
) -> bool:
    """Writer thread body: stream events, result document, then retire.

    Ordering contract for pollers: by the time ``<job>.result.json``
    exists, ``<job>.events.jsonl`` is complete — the event stream only
    ends once the feed is closed, which happens strictly after the run
    finishes (or fails).  A *cancelled* job (service drain) writes no
    result at all, leaving its work file for the drain path to re-spool
    (and returns False: the job is not over).
    """
    _stream_events(root, job_id, session, ticket)
    retired = _finish_job(root, job_id, session, qos, ticket, attempt=attempt)
    if retired and work_path is not None:
        _cleanup_work(root, work_path, job_id)
    return retired


def _finish_job(
    root: str, job_id: str, session: str, qos: str, ticket, *, attempt: int = 1
) -> bool:
    """Write the job's final image and result document.

    Returns True when the job is *finished* (a result document exists —
    ours or a competing attempt's) and the claim should be retired;
    False for a cancelled job that must be re-spooled instead.
    """
    out_dir = os.path.join(root, _OUT)
    doc: dict[str, Any] = {
        "schema": RESULT_SCHEMA,
        "job_id": job_id,
        "session": session,
        "qos": qos,
        "attempt": attempt,
    }
    try:
        result = ticket.result()
    except JobCancelledError:
        # Service drain cancelled the queued job: no result document —
        # the job is not over, it goes back to the spool.
        return False
    except Exception as err:  # noqa: BLE001 - reported to the client
        doc.update({"ok": False, "error": type(err).__name__, "detail": str(err)})
    else:
        image_path = os.path.join(out_dir, f"{job_id}.final.npz")
        tmp = f"{image_path}.tmp-{os.getpid()}.npz"
        with open(tmp, "wb") as fh:
            np.savez_compressed(
                fh,
                intensity=result.final_image.intensity,
                opacity=result.final_image.opacity,
            )
        os.replace(tmp, image_path)
        timeline = result.timeline
        doc.update(
            {
                "ok": True,
                "outcome": timeline.meta.get("outcome") if timeline else None,
                "degraded": result.degraded,
                "recovered": result.recovered,
                "failed_ranks": result.failed_ranks,
                "backend": result.backend_name,
                "makespan": timeline.makespan if timeline else None,
                "coverage": ticket.feed.coverage if ticket.feed is not None else None,
                "events": len(ticket.feed.events) if ticket.feed is not None else 0,
                "image": image_path,
                "method": result.config.method,
                "label": result.config.label(),
            }
        )
    # Exclusive create: at most one attempt's result document ever
    # lands.  Losing means a presumed-dead competitor finished first —
    # fine, deterministic renders made the payloads identical.
    _exclusive_write_text(
        os.path.join(out_dir, f"{job_id}.result.json"), json.dumps(doc, indent=2)
    )
    return True


def serve(
    root: str,
    base_config: RunConfig,
    *,
    max_workers: int = 2,
    max_jobs: Optional[int] = None,
    idle_timeout: Optional[float] = None,
    poll: float = 0.05,
    queue_limit: Optional[int] = None,
    shed_policy: str = "block",
    lease_s: float = 15.0,
    max_attempts: int = 3,
    stop_event: Optional[threading.Event] = None,
) -> int:
    """Run a serve loop over the spool; returns the number of jobs served.

    Claims pending requests in name order (reclaiming expired leases
    first), multiplexes them through one :class:`RenderService`
    (sessions and QoS from each request, admission per
    ``queue_limit``/``shed_policy``), and exits after ``max_jobs`` jobs
    or once the spool has been idle — no pending or in-flight work —
    for ``idle_timeout`` seconds.  Between looks at the spool the loop
    waits on the doorbell, ``poll`` seconds at most.  With neither bound
    the loop serves until SIGTERM/``stop_event``, then drains
    gracefully: in-flight renders finish, queued claims go back to
    ``jobs/``.  Own leases are refreshed, and expired ones looked for,
    every ``lease_s / 3`` seconds (0.2 s at least).
    """
    _ensure_layout(root)
    heartbeat_s = max(lease_s / 3.0, 0.2)
    stop = stop_event if stop_event is not None else threading.Event()
    prev_handler = None
    if threading.current_thread() is threading.main_thread():
        try:
            prev_handler = signal.signal(
                signal.SIGTERM, lambda signum, frame: stop.set()
            )
        except (ValueError, OSError):  # pragma: no cover - exotic runtimes
            prev_handler = None

    served = 0
    #: Claimed jobs whose writer has not finished (or that were cancelled).
    inflight: dict[str, dict[str, Any]] = {}
    inflight_lock = threading.Lock()
    service = RenderService(
        base_config,
        max_workers=max_workers,
        queue_limit=queue_limit,
        shed_policy=shed_policy,
    )

    def _heartbeat() -> None:
        while not stop.wait(heartbeat_s):
            with inflight_lock:
                live = [
                    (jid, meta["attempt"])
                    for jid, meta in inflight.items()
                    if not meta["ticket"].done()
                ]
            for jid, attempt in live:
                _write_lease(root, jid, attempt, lease_s)

    beater = threading.Thread(target=_heartbeat, name="spool-heartbeat", daemon=True)
    beater.start()
    bell = _Doorbell(root)

    def _launch(work_path: str, job_id: str, attempt: int) -> bool:
        """Admit one claimed work item; False if it could not start."""
        nonlocal served
        try:
            with open(work_path, encoding="utf-8") as fh:
                request = json.load(fh)
        except (OSError, json.JSONDecodeError):
            return False  # claim raced away / torn write; reclaim later
        try:
            session, qos, deltas, fault_plan, deadline_s = _parse_job(request)
            # The service only closes after this loop, so a refusal here
            # is the session's QoS clashing with an earlier job's.
            service.open_session(session, qos=qos)
        except ConfigurationError as err:
            return _reject(root, work_path, job_id, attempt, err)
        store = None
        if QOS_POLICIES.get(qos) == "checkpoint-resume" or (
            deltas.get("recovery") == "checkpoint-resume"
        ):
            # Durable per-job store: a reclaimed attempt resumes the
            # whole run in lockstep from the highest loadable common
            # stage.
            store = DiskCheckpointStore(
                os.path.join(root, _WORK, f"{job_id}.ckpt"), run_id=job_id
            )
        job = RenderJob(
            deltas=deltas,
            fault_plan=fault_plan,
            label=job_id,
            deadline_s=deadline_s,
            checkpoint_store=store,
        )
        _write_lease(root, job_id, attempt, lease_s)
        try:
            ticket = service.submit(session, job)
        except OverloadError as err:
            # reject / shed-at-the-door: the client gets a typed
            # failure document instead of hanging.
            return _reject(root, work_path, job_id, attempt, err, session=session, qos=qos)
        except ConfigurationError:
            # Service closed under us (stop raced the claim): re-spool.
            _respool(root, work_path, job_id)
            return False
        meta: dict[str, Any] = {
            "ticket": ticket,
            "work_path": work_path,
            "attempt": attempt,
        }

        def _write_then_retire() -> None:
            # A finished job's ticket, feed and frames are dropped here,
            # not at exit; a cancelled one stays for the drain path.
            if _job_writer(root, job_id, session, qos, ticket, work_path, attempt):
                with inflight_lock:
                    if inflight.get(job_id) is meta:
                        del inflight[job_id]

        meta["writer"] = threading.Thread(
            target=_write_then_retire, name=f"spool-writer-{job_id}", daemon=True
        )
        with inflight_lock:
            inflight[job_id] = meta
        meta["writer"].start()
        served += 1
        return True

    last_activity = time.monotonic()
    last_reclaim = -float("inf")
    try:
        while not stop.is_set():
            if max_jobs is not None and served >= max_jobs:
                break
            now = time.monotonic()
            if now - last_reclaim >= heartbeat_s:
                last_reclaim = now
                with inflight_lock:
                    own = set(inflight)
                for claim in _reclaim_expired(
                    root, lease_s=lease_s, max_attempts=max_attempts, skip=own
                ):
                    if _launch(*claim):
                        last_activity = time.monotonic()
                if stop.is_set() or (max_jobs is not None and served >= max_jobs):
                    continue
            claimed = _claim_next(root)
            if claimed is not None:
                if _launch(*claimed):
                    last_activity = time.monotonic()
                continue  # drain the backlog before sleeping
            with inflight_lock:
                busy = any(not m["ticket"].done() for m in inflight.values())
            if busy or service.pool.jobs_active > 0:
                last_activity = time.monotonic()
            elif (
                idle_timeout is not None
                and time.monotonic() - last_activity >= idle_timeout
            ):
                break
            bell.wait(poll)
    finally:
        interrupted = stop.is_set()
        stop.set()
        if not interrupted:
            # Natural exit (max_jobs / idle): every admitted job still
            # completes — only an interrupt cancels queued work.
            with inflight_lock:
                metas = list(inflight.items())
            for _, meta in metas:
                try:
                    meta["ticket"].result()
                except Exception:  # noqa: BLE001 - writer reports it
                    pass
        # Drain: running jobs finish, queued tickets come back cancelled.
        cancelled = service.close(drain=True)
        cancelled_ids = {t.job.label for t in cancelled}
        with inflight_lock:
            metas = list(inflight.items())
        # Writers observe the settled futures/closed feeds and exit;
        # join them so every events/result pair is complete (or the
        # cancelled job's work file is provably untouched) on return.
        for _, meta in metas:
            meta["writer"].join(timeout=30.0)
        for job_id, meta in metas:
            if job_id in cancelled_ids or meta["ticket"].state == "cancelled":
                served -= 1 if _respool(root, meta["work_path"], job_id) else 0
        beater.join(timeout=heartbeat_s + 1.0)
        bell.close()
        if prev_handler is not None:
            try:
                signal.signal(signal.SIGTERM, prev_handler)
            except (ValueError, OSError):  # pragma: no cover
                pass
    return served
