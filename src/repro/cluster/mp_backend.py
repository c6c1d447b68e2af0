"""Real-transport backend: the rank programs on OS processes and queues.

The simulator gives deterministic *timing*; this backend gives a second,
*real* execution substrate for correctness: every rank is an actual
``multiprocessing`` process and every message crosses a real IPC queue.
The same rank-program coroutines run unchanged — :class:`MPRankContext`
implements the full :class:`~repro.cluster.protocol.BaseRankContext`
surface (including ``isend``/``irecv``/``wait``) with synchronous
transport calls inside ``async`` methods that never yield, so each rank
drives its coroutine to completion locally (no event loop needed).

Accounting is the same per-stage :class:`~repro.cluster.stats.RankStats`
schema the simulator fills, with two differences dictated by physics:

* times are **wall-clock** seconds (blocked receive time lands in
  ``comm_time``; skew cannot be split out on a real transport), and
* ``charge_*`` record operation *counts* only — modelled seconds make no
  sense off the simulator.

Byte counters use the exact sizing the simulator prices
(:func:`~repro.cluster.protocol.encode_payload`), so per-stage
``bytes_sent``/``bytes_recv`` match the simulated run bit for bit.

Robustness
----------
Frames carry a CRC32 of the wire payload; the receiver verifies it and
raises :class:`~repro.errors.WireFormatError` on mismatch.  Two
detectors decide every failure.  The parent is the one detector of a
dead rank: it watches worker process sentinels and fails fast with
:class:`~repro.errors.RankFailedError` — carrying the worker's formatted
traceback — about a second after a rank dies, instead of blocking out
the full receive timeout.  The receive timeout is the one detector of a
hung rank: a receive that waits longer raises a typed
:class:`~repro.errors.DeadlockError` naming the blocked ``(src, tag)``,
the waiting rank's pipeline phase and stage, and the peer.  Teardown
terminates stragglers and releases every queue buffer.

Recovery is not this module's business: the supervisor fails fast on
the first error report or dead sentinel, and
:meth:`~repro.pipeline.system.SortLastSystem._recover` re-runs every
rank together (see :mod:`repro.cluster.recovery`).
"""

from __future__ import annotations

import multiprocessing as mp
import queue as queue_mod
import time
import traceback
import zlib
from collections import deque
from multiprocessing import connection as mp_connection
from typing import Any, Optional, Sequence

from .. import perf
from ..errors import (
    ConfigurationError,
    DeadlockError,
    RankFailedError,
    SimulationError,
    WireFormatError,
)
from .events import ANY_TAG
from .faults import frame_checksum
from .protocol import BaseRankContext, decode_payload, drive, encode_payload
from .stats import RankStats, RunResult

__all__ = [
    "MPRankContext",
    "MPRequest",
    "run_rank_programs_mp",
    "DEFAULT_TIMEOUT",
]

#: Per-receive timeout (seconds) after which a rank assumes deadlock.
DEFAULT_TIMEOUT = 60.0


class MPRequest:
    """Handle for a nonblocking operation on the multiprocessing backend.

    Queues are buffered, so ``isend`` completes eagerly at post time;
    ``irecv`` defers the blocking queue read to :meth:`MPRankContext.wait`,
    with per-``(src, tag)`` FIFO delivery matching the simulator's
    post-order pairing even when waits complete out of order.
    """

    __slots__ = ("kind", "peer", "tag", "payload", "nbytes", "done")

    def __init__(self, kind: str, peer: int, tag: int):
        self.kind = kind  # "isend" | "irecv"
        self.peer = peer
        self.tag = tag
        self.payload: Any = None
        self.nbytes = 0
        self.done = kind == "isend"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "done" if self.done else "pending"
        return f"MPRequest({self.kind}, peer={self.peer}, tag={self.tag}, {state})"


def _raw_frame_bytes(wire: Any) -> Optional[bytes]:
    """Flat bytes of an encoded wire payload (``None`` if not a buffer)."""
    if wire is None:
        return b""
    if isinstance(wire, (bytes, bytearray)):
        return bytes(wire)
    try:
        return memoryview(wire).tobytes()
    except TypeError:
        return None


class MPRankContext(BaseRankContext):
    """Rank API over multiprocessing queues (one queue per directed pair).

    Implements the full :class:`~repro.cluster.protocol.BaseRankContext`
    surface; the ``async`` methods complete synchronously, so awaiting
    them never suspends.
    """

    backend_name = "multiprocessing"

    def __init__(self, rank: int, size: int, queues, timeout: float):
        self._rank = rank
        self._size = size
        self._queues = queues  # queues[src][dst]
        self._timeout = timeout
        self._stats = RankStats(rank=rank)
        self._current_stage = -1
        # Unwaited irecv requests, FIFO per (src, tag).
        self._pending_irecvs: dict[tuple[int, int], deque] = {}

    # ---- identity --------------------------------------------------------
    @property
    def rank(self) -> int:
        return self._rank

    @property
    def size(self) -> int:
        return self._size

    @property
    def stats(self) -> RankStats:
        return self._stats

    # ---- staging ----------------------------------------------------------
    def _set_stage(self, stage: int) -> None:
        self._current_stage = int(stage)

    @property
    def current_stage(self) -> int:
        return self._current_stage

    def _bucket(self):
        return self._stats.stage(self._current_stage)

    # ---- computation (counts only; wall time measures itself) --------------
    async def compute(self, seconds: float, *, kind: str = "compute", count: int = 0) -> None:
        self._bucket().add_counter(kind, count)

    # ---- transport ---------------------------------------------------------
    def _put(
        self, dst: int, payload: Any, nbytes: Optional[int], tag: int,
        verb: str = "send",
    ) -> tuple[int, bool]:
        """Frame, size, checksum, and enqueue one message; returns
        ``(priced_size, dropped)``.  Injected faults apply here (the
        shared protocol hook), after the CRC is taken — corruption is
        always detectable."""
        faults = self._message_faults(verb, dst, tag)
        wire, size, pickled = encode_payload(payload, nbytes)
        crc = frame_checksum(wire)
        if faults is not None:
            if faults.delay > 0.0:
                time.sleep(faults.delay)
            if faults.drop:
                # The message vanished on the wire: nothing is enqueued
                # and (matching the simulator) nothing is accounted.
                return size, True
            if faults.corrupt:
                raw = _raw_frame_bytes(wire)
                if raw is not None:
                    if crc is None:
                        crc = zlib.crc32(raw) & 0xFFFFFFFF
                    wire = self._fault_injector.damage_wire(raw)
        try:
            # Channels are unbounded, so a put never waits for room.
            self._queues[self._rank][dst].put((tag, wire, size, pickled, crc))
        except OSError as exc:
            raise SimulationError(
                f"rank {self._rank}: transport failure sending to rank {dst} "
                f"(stage {self._current_stage}): {exc!r}"
            ) from exc
        bucket = self._bucket()
        bucket.bytes_sent += size
        bucket.msgs_sent += 1
        return size, False

    def _get(self, src: int, tag: int) -> tuple[Any, int]:
        """Blocking dequeue of one message from ``src``; returns
        ``(payload, priced_size)`` and accounts bytes/time received.

        A sender that never sends surfaces after the configured timeout
        as a typed :class:`~repro.errors.DeadlockError` naming the
        blocked ``(src, tag)``, the waiting rank's phase/stage, and the
        peer; transport errors are distinguished from plain queue
        emptiness.  A dead sender is the supervisor's to report."""
        start = time.perf_counter()
        try:
            frame = self._queues[src][self._rank].get(timeout=self._timeout)
        except queue_mod.Empty:
            raise DeadlockError(
                {
                    self._rank: (
                        f"recv from rank {src} (tag {tag}) timed out after "
                        f"{self._timeout:.1f}s on the {self.backend_name} backend"
                    )
                },
                phase=self.current_phase,
                stage=self._current_stage,
                peer=src,
            ) from None
        except (OSError, EOFError, ValueError) as exc:
            raise SimulationError(
                f"rank {self._rank}: transport failure receiving from "
                f"rank {src}: {exc!r}"
            ) from exc
        got_tag, wire, size, pickled, crc = frame
        if crc is not None:
            actual = frame_checksum(wire)
            if actual != crc:
                self._stats.events.append(
                    {
                        "event": "detected",
                        "fault": "corrupt",
                        "rank": self._rank,
                        "src": src,
                        "tag": got_tag,
                        "stage": self._current_stage,
                    }
                )
                raise WireFormatError(
                    f"rank {self._rank}: message from rank {src} (tag {got_tag}, "
                    f"{size}B) failed CRC32 check on the {self.backend_name} "
                    f"backend (expected {crc:#010x}, got "
                    f"{'unchecksummable' if actual is None else format(actual, '#010x')})"
                )
        if tag != ANY_TAG and got_tag != tag:
            raise SimulationError(
                f"rank {self._rank} expected tag {tag} from {src}, got {got_tag} "
                "(out-of-order traffic is not supported on this backend)"
            )
        bucket = self._bucket()
        bucket.comm_time += time.perf_counter() - start
        bucket.bytes_recv += size
        bucket.msgs_recv += 1
        return decode_payload(wire, pickled), size

    async def send(self, dst: int, payload: Any, *, nbytes=None, tag: int = 0):
        self._check_peer(dst)
        self._put(dst, payload, nbytes, tag)

    async def recv(self, src: int, *, tag: int = ANY_TAG) -> Any:
        self._check_peer(src)
        payload, _ = self._get(src, tag)
        return payload

    async def sendrecv(self, peer: int, payload: Any, *, nbytes=None, tag: int = 0) -> Any:
        if peer == self._rank:
            raise ConfigurationError("cannot sendrecv with self")
        self._check_peer(peer)
        # Queues are buffered, so send-then-receive cannot deadlock.
        _, dropped = self._put(peer, payload, nbytes, tag, verb="sendrecv")
        if dropped:
            # Matching the simulator: a dropped sendrecv means the rank's
            # NIC died mid-exchange — it gets nothing back either, and
            # the partner blocks until its receive timeout.
            return None
        received, _ = self._get(peer, tag)
        return received

    # ---- nonblocking -------------------------------------------------------
    async def isend(self, dst: int, payload: Any, *, nbytes=None, tag: int = 0):
        self._check_peer(dst)
        request = MPRequest("isend", dst, tag)
        request.nbytes, _ = self._put(dst, payload, nbytes, tag, verb="isend")
        return request

    async def irecv(self, src: int, *, tag: int = ANY_TAG):
        self._check_peer(src)
        request = MPRequest("irecv", src, tag)
        self._pending_irecvs.setdefault((src, tag), deque()).append(request)
        return request

    async def wait(self, request) -> Any:
        if not isinstance(request, MPRequest):
            raise ConfigurationError(
                f"wait takes an MPRequest on this backend, got {type(request).__name__}"
            )
        # Drain the (src, tag) channel head-first so payloads pair with
        # requests in post order regardless of the order waits are issued.
        while not request.done:
            pending = self._pending_irecvs[(request.peer, request.tag)]
            head = pending.popleft()
            head.payload, head.nbytes = self._get(head.peer, head.tag)
            head.done = True
        return request.payload if request.kind == "irecv" else None


def _worker(rank, size, program, args, queues, timeout, result_queue):
    """Subprocess entry: drive the rank coroutine to completion.

    Failures ship the exception *type name*, message, and formatted
    traceback (plus the rank's stats, whose ``events`` list records any
    injected faults) so the parent can rebuild a diagnosable error."""
    ctx = None
    try:
        perf.reset()  # the fork inherits the parent's counters; start clean
        ctx = MPRankContext(rank, size, queues, timeout)
        start = time.perf_counter()
        with perf.timer("backend.mp.rank_program"):
            value = drive(program(ctx, *args))
        wall = time.perf_counter() - start
        result_queue.put((rank, "ok", value, ctx.stats, wall, perf.report()))
    except BaseException as exc:  # report, don't hang the parent
        info = {
            "type": type(exc).__name__,
            "message": str(exc),
            "traceback": traceback.format_exc(),
            "phase": getattr(exc, "phase", None),
            "stage": getattr(exc, "stage", None),
            "peer": getattr(exc, "peer", None),
            "blocked": getattr(exc, "blocked", None),
            # Where the *rank* was: the fallback location when the
            # error itself names no phase or stage.
            "ctx_phase": ctx.current_phase if ctx is not None else None,
            "ctx_stage": ctx.current_stage if ctx is not None else None,
        }
        stats = ctx.stats if ctx is not None else RankStats(rank=rank)
        try:
            result_queue.put((rank, "error", info, stats, 0.0, {}))
        except Exception:
            pass  # the parent's liveness supervisor notices the exit


def _error_from_info(rank: int, info: dict, stats: Optional[RankStats]) -> Exception:
    """Rebuild a typed error from a worker's failure report."""
    events = list(stats.events) if stats is not None else []
    if info.get("type") == "WireFormatError":
        # Detected corruption keeps its type across the process
        # boundary — the CRC contract promises WireFormatError.
        err: Exception = WireFormatError(info.get("message", ""))
        err.rank = rank  # type: ignore[attr-defined]
        err.events = events  # type: ignore[attr-defined]
        return err
    if info.get("type") == "DeadlockError":
        # A rank's receive timeout surfaces as the same typed error the
        # simulator's structural detection raises, with the blocked
        # rank's phase/stage/peer diagnostics carried across processes.
        blocked = info.get("blocked")
        if not isinstance(blocked, dict) or not blocked:
            blocked = {rank: info.get("message", "")}
        phase = info.get("phase") or info.get("ctx_phase")
        stage = info.get("stage")
        if not isinstance(stage, int):
            stage = info.get("ctx_stage")
        peer = info.get("peer")
        deadlock = DeadlockError(
            blocked,
            phase=phase if isinstance(phase, str) else None,
            stage=stage if isinstance(stage, int) else None,
            peer=peer if isinstance(peer, int) else None,
        )
        deadlock.events = events  # type: ignore[attr-defined]
        return deadlock
    phase = info.get("phase")
    stage = info.get("stage")
    return RankFailedError(
        rank,
        original_type=info.get("type"),
        traceback_text=info.get("traceback"),
        detail=f"{info.get('type')}: {info.get('message')}",
        events=events,
        fault_phase=phase if isinstance(phase, str) else None,
        fault_stage=stage if isinstance(stage, int) else None,
    )


def _release_queue(channel) -> None:
    """Drain and close one queue so buffers and feeder threads go away."""
    if channel is None:
        return
    try:
        while True:
            channel.get_nowait()
    except Exception:
        pass
    try:
        channel.cancel_join_thread()
        channel.close()
    except Exception:
        pass


def run_rank_programs_mp(
    num_ranks: int,
    program,
    args: Sequence[Any] = (),
    *,
    timeout: float = DEFAULT_TIMEOUT,
) -> RunResult:
    """Run ``program(ctx, *args)`` on ``num_ranks`` real processes.

    ``program`` must be a picklable (module-level) ``async def``; its
    return values are collected per rank into a wall-clock record whose
    makespan is the slowest rank's wall time.  A supervisor loop drains
    results while watching worker liveness through process sentinels:
    the first rank that reports an error or dies without reporting
    raises immediately — :class:`~repro.errors.RankFailedError` with the
    worker's traceback (or :class:`~repro.errors.WireFormatError` for
    detected corruption) — rather than stalling out the full timeout.
    Teardown terminates any stragglers and releases every queue.
    """
    if num_ranks < 1:
        raise ConfigurationError(f"num_ranks must be >= 1, got {num_ranks}")
    mp_ctx = mp.get_context("fork")  # workers inherit numpy state cheaply
    queues = [
        [mp_ctx.Queue() if src != dst else None for dst in range(num_ranks)]
        for src in range(num_ranks)
    ]
    result_queue = mp_ctx.Queue()

    workers = [
        mp_ctx.Process(
            target=_worker,
            args=(rank, num_ranks, program, tuple(args), queues, timeout,
                  result_queue),
        )
        for rank in range(num_ranks)
    ]
    for worker in workers:
        worker.start()

    returns: list[Any] = [None] * num_ranks
    rank_stats = [RankStats(rank=r) for r in range(num_ranks)]
    wall_times = [0.0] * num_ranks
    rank_perf: list[dict] = [{} for _ in range(num_ranks)]
    pending = set(range(num_ranks))
    failure: Optional[Exception] = None
    # Workers bound their own receives by `timeout`, so honest runs
    # always report within it; the slack covers result shipping.
    deadline = time.monotonic() + timeout + 10.0

    def _drain(block_for: float = 0.0) -> bool:
        """Consume every available result; returns whether any arrived."""
        nonlocal failure
        got = False
        while True:
            try:
                if block_for > 0.0:
                    item = result_queue.get(timeout=block_for)
                    block_for = 0.0
                else:
                    item = result_queue.get_nowait()
            except queue_mod.Empty:
                return got
            got = True
            rank, status, value, stats, wall, report = item
            pending.discard(rank)
            if status == "ok":
                returns[rank] = value
                rank_stats[rank] = stats
                wall_times[rank] = wall
                rank_perf[rank] = report
            elif failure is None:  # first failure wins (fail fast)
                failure = _error_from_info(rank, value, stats)

    try:
        while pending and failure is None:
            if _drain():
                continue
            dead = [r for r in sorted(pending) if workers[r].exitcode is not None]
            if dead:
                # A worker that posted its result right before exiting
                # may still have the frame in flight; give it a moment.
                grace_end = time.monotonic() + 1.0
                while time.monotonic() < grace_end and any(r in pending for r in dead):
                    _drain(block_for=0.05)
                dead = [r for r in dead if r in pending]
                if dead and failure is None:
                    first = dead[0]
                    failure = RankFailedError(
                        first,
                        detail=(
                            f"worker process exited with code "
                            f"{workers[first].exitcode} before reporting a result"
                        ),
                    )
                continue
            if time.monotonic() > deadline:
                failure = SimulationError(
                    f"multiprocessing run failed: collection timed out after "
                    f"{timeout:.1f}s; pending ranks {sorted(pending)}"
                )
                break
            sentinels = [w.sentinel for w in workers if w.is_alive()]
            if sentinels:
                # Sleep until a worker exits or a poll slice elapses.
                mp_connection.wait(sentinels, timeout=0.05)
    finally:
        if failure is not None:
            for worker in workers:
                if worker.is_alive():
                    worker.terminate()
        for worker in workers:
            worker.join(timeout=5.0)
        for worker in workers:
            if worker.is_alive():  # pragma: no cover - terminate() sufficed so far
                worker.kill()
                worker.join(timeout=1.0)
        _release_queue(result_queue)
        for row in queues:
            for channel in row:
                _release_queue(channel)
    if failure is not None:
        raise failure
    return RunResult(
        num_ranks=num_ranks,
        returns=returns,
        rank_stats=rank_stats,
        makespan=max(wall_times, default=0.0),
        backend="mp",
        clock="wall",
        wall_times=wall_times,
        rank_perf=rank_perf,
        events=[ev for rs in rank_stats for ev in rs.events],
    )
