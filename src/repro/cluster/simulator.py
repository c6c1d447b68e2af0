"""Deterministic discrete-event simulator of a distributed-memory machine.

``P`` rank programs (``async def`` coroutines) run under a single OS
thread.  Each rank owns a *virtual clock*; awaited operations advance it
according to the :class:`~repro.cluster.model.MachineModel`:

* ``ComputeOp(dt)``            — ``clock += dt`` (charged to ``T_comp``).
* ``SendOp`` / ``RecvOp``      — rendezvous: both sides complete at
  ``max(post times) + Ts + nbytes·Tc``.  The transfer portion
  (``Ts + nbytes·Tc``) is charged to the rank's ``T_comm`` and the time
  spent waiting for the partner to arrive (``max(posts) − own post``) to
  its ``wait_time`` — keeping ``T_comm`` aligned with the paper's pure
  communication terms while the makespan still reflects skew.
* ``SendRecvOp``               — full-duplex pairwise exchange: each side
  completes at ``max(post times) + Ts + incoming_bytes·Tc`` (its own
  outgoing transfer overlaps), which is exactly the per-stage
  communication term of the paper's eqs. (2), (4), (6), (8).

Arrival times optionally route through a pluggable
:class:`~repro.cluster.model.Network` (``network=``): the default flat
link prices exactly ``Ts + nbytes·Tc`` as above, while switched
topologies (fat-tree, torus, dragonfly) add per-link contention queues
on top of the same endpoint cost.

One scheduler drives the coroutines: a min-heap of ready ranks keyed
``(virtual clock, rank, sequence)``.  Popping the earliest entry runs
that rank until it blocks; a blocking operation attempts its match
*immediately* against the partner's posted state, and a successful match
re-schedules both sides at their completion clocks.  Idle ranks cost
zero scheduler work, so a run is ``O(events · log P)``.  Every match
timing is a pure function of the two posts, so *when* a match is
discovered is unobservable in virtual time; the round-robin reference
scheduler the tests compare against lives in ``tests/oracles.py``.

Schedule exploration: the engine's residual ordering freedom —
same-clock heap ties, the ANY_TAG wildcard's choice among pending
per-tag channels, and probabilistic fault firings — can be handed to a
:class:`~repro.cluster.schedule_policy.SchedulePolicy` (``policy=``).
With no policy (or the deterministic one) nothing changes; an exploring
policy reorders only within those freedoms and records every decision
for bit-exact replay.  Exact-tag-before-wildcard precedence and
per-``(src, dst, tag)`` FIFO are pinned invariants no policy can break.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Coroutine, Optional

from collections import deque

from ..errors import (
    ConfigurationError,
    DeadlineExceededError,
    DeadlockError,
    LivelockError,
    RankFailedError,
    SimulationError,
    WireFormatError,
)
from .context import RankContext
from .events import (
    ANY_TAG,
    ComputeOp,
    IrecvOp,
    IsendOp,
    Op,
    RecvOp,
    Request,
    SendOp,
    SendRecvOp,
    WaitOp,
)
from .model import MachineModel, Network
from .schedule_policy import SchedulePolicy, state_digest
from .stats import RankStats, RunResult

__all__ = ["Simulator", "TraceEvent"]


class _State(Enum):
    READY = "ready"
    BLOCKED = "blocked"
    DONE = "done"


@dataclass
class TraceEvent:
    """One entry of the optional execution trace."""

    time: float
    rank: int
    kind: str
    detail: str


@dataclass
class _Proc:
    """Book-keeping for one simulated rank."""

    rank: int
    coro: Coroutine[Op, Any, Any]
    clock: float = 0.0
    state: _State = _State.READY
    pending: Optional[Op] = None
    post_time: float = 0.0
    resume_value: Any = None
    return_value: Any = None
    current_stage: int = -1
    stats: RankStats = field(default_factory=lambda: RankStats(rank=-1))

    def __post_init__(self) -> None:
        self.stats = RankStats(rank=self.rank)

    def bucket(self):
        return self.stats.stage(self.current_stage)


class Simulator:
    """Run ``num_ranks`` coroutine programs in deterministic virtual time.

    Parameters
    ----------
    num_ranks:
        Number of simulated processors (``P``); must be positive.
    model:
        The machine cost model used to price every operation.
    trace:
        When true, record a :class:`TraceEvent` per simulator action in
        :attr:`trace_events` (useful for debugging protocols; costs memory).
    max_steps:
        Safety valve against runaway programs: the total number of
        coroutine resumptions is capped.
    network:
        Optional :class:`~repro.cluster.model.Network` topology pricing
        message arrivals.  ``None`` (default) is the paper's flat link,
        ``Ts + nbytes·Tc``, with no contention state.
    policy:
        Optional :class:`~repro.cluster.schedule_policy.SchedulePolicy`
        consulted at the engine's genuine-freedom points (same-clock
        ties, multi-channel wildcard matches, probabilistic fault
        firings).  ``None`` and the deterministic policy run today's
        order bit-identically.
    """

    def __init__(
        self,
        num_ranks: int,
        model: MachineModel,
        *,
        trace: bool = False,
        max_steps: int = 50_000_000,
        network: Network | None = None,
        policy: SchedulePolicy | None = None,
    ):
        if num_ranks < 1:
            raise ConfigurationError(f"num_ranks must be >= 1, got {num_ranks}")
        self.num_ranks = int(num_ranks)
        self.model = model
        self.trace = bool(trace)
        self.trace_events: list[TraceEvent] = []
        self.max_steps = int(max_steps)
        self.network = network
        self.policy = policy
        self._procs: list[_Proc] = []
        # Nonblocking machinery: FIFO queues of unmatched requests keyed
        # by (src, dst, tag), and a per-rank incoming-link availability
        # time that serializes concurrent background transfers into one
        # receiver (a single NIC drains one message at a time).
        self._pending_isends: dict[tuple[int, int, int], deque] = {}
        self._pending_irecvs: dict[tuple[int, int, int], deque] = {}
        self._link_free: list[float] = []
        # Min-heap of (clock, rank, seq, proc) for READY procs.
        self._heap: list = []
        self._seq = 0
        self._steps = 0
        # Ranks that have exited: the run ends when all have.
        self._done_count = 0

    # ------------------------------------------------------------------ api
    def run(self, program_factory: Callable[[RankContext], Coroutine]) -> RunResult:
        """Instantiate one program per rank and run to completion.

        ``program_factory(ctx)`` must return a coroutine; ``ctx`` exposes
        the rank's communication API (see :class:`RankContext`).
        """
        self._procs = []
        self._pending_isends.clear()
        self._pending_irecvs.clear()
        self._link_free = [0.0] * self.num_ranks
        self._heap = []
        self._seq = 0
        self._steps = 0
        self._done_count = 0
        if self.network is not None:
            self.network.reset(self.num_ranks)
        for rank in range(self.num_ranks):
            proc = _Proc(rank=rank, coro=None)  # type: ignore[arg-type]
            ctx = RankContext(simulator=self, proc=proc)
            coro = program_factory(ctx)
            if not hasattr(coro, "send"):
                raise ConfigurationError(
                    "program_factory must return a coroutine (use 'async def'), "
                    f"got {type(coro).__name__}"
                )
            proc.coro = coro
            self._procs.append(proc)

        try:
            self._drive()
        except BaseException:
            self._close_all()
            raise

        makespan = max((p.clock for p in self._procs), default=0.0)
        return RunResult(
            num_ranks=self.num_ranks,
            returns=[p.return_value for p in self._procs],
            rank_stats=[p.stats for p in self._procs],
            makespan=makespan,
        )

    # ------------------------------------------------------------ scheduler
    def _drive(self) -> None:
        """Pop ready ranks in (clock, rank, seq) order; match on block."""
        for proc in self._procs:
            self._schedule(proc)
        explore_ties = self.policy is not None and self.policy.explores_ties
        while self._heap:
            if explore_ties:
                proc = self._pop_with_tie_choice()
                if proc is None:
                    continue
            else:
                _, _, _, proc = heapq.heappop(self._heap)
                if proc.state is not _State.READY:
                    continue  # defensively skip a stale entry
            self._advance(proc)
        if self._done_count < self.num_ranks:
            self._raise_deadlock()

    def _pop_with_tie_choice(self) -> "_Proc | None":
        """Heap pop that lets the schedule policy pick among clock ties.

        Gathers every READY entry sharing the minimum virtual clock —
        the set of legal next steps — and asks the policy for one;
        candidates are canonically sorted by ``(rank, seq)`` so index 0
        is exactly the default heap order.  Unchosen entries go back on
        the heap untouched.
        """
        heap = self._heap
        entry = heapq.heappop(heap)
        if entry[3].state is not _State.READY:
            return None
        ties = [entry]
        while heap and heap[0][0] == entry[0]:
            nxt = heapq.heappop(heap)
            if nxt[3].state is _State.READY:
                ties.append(nxt)
        if len(ties) == 1:
            return ties[0][3]
        ties.sort(key=lambda e: (e[1], e[2]))
        candidates = [{"rank": e[1], "seq": e[2]} for e in ties]
        index = self.policy.decide("tie", candidates, self._decision_digest())
        chosen = ties.pop(index)
        for e in ties:
            heapq.heappush(heap, e)
        return chosen[3]

    def _decision_digest(self) -> str:
        """Stable digest of the schedulable state at a decision point.

        Per-rank clocks/states plus the pending nonblocking queues
        (keys, depths, head post times) — enough to detect replay
        divergence and to deduplicate DFS states, cheap enough to
        compute per decision.
        """
        ranks = tuple(
            (p.rank, p.state.value, p.clock, type(p.pending).__name__)
            for p in self._procs
        )
        sends = tuple(
            (key, len(q), q[0].post_time)
            for key, q in sorted(self._pending_isends.items())
            if q
        )
        recvs = tuple(
            (key, len(q)) for key, q in sorted(self._pending_irecvs.items()) if q
        )
        return state_digest((ranks, sends, recvs))

    def _schedule(self, proc: _Proc) -> None:
        """Enqueue a READY proc at its current clock."""
        if proc.state is not _State.READY:
            return
        self._seq += 1
        heapq.heappush(self._heap, (proc.clock, proc.rank, self._seq, proc))

    def _advance(self, proc: _Proc) -> None:
        """Run one rank until it blocks or finishes, then try its match."""
        while proc.state is _State.READY:
            self._count_step()
            self._step(proc)
        if proc.state is _State.DONE:
            return
        op = proc.pending
        if isinstance(op, RecvOp):
            self._try_match_recv(proc, op)
        elif isinstance(op, SendOp):
            # The receiver side owns recv-matching; poke it if it is
            # already blocked on us.  An out-of-range dst simply never
            # matches (surfacing as a deadlock).
            if 0 <= op.dst < self.num_ranks:
                receiver = self._procs[op.dst]
                if receiver.state is _State.BLOCKED and isinstance(
                    receiver.pending, RecvOp
                ):
                    self._try_match_recv(receiver, receiver.pending)
        elif isinstance(op, SendRecvOp):
            self._try_match_exchange(proc, op)
        elif isinstance(op, WaitOp):
            if not self._try_complete_wait(proc, op):
                for request in op.requests:
                    if not request.matched:
                        request.waiter = proc

    def _count_step(self) -> None:
        self._steps += 1
        if self._steps > self.max_steps:
            raise SimulationError(
                f"exceeded max_steps={self.max_steps}; "
                "likely an unbounded loop in a rank program"
            )
        policy = self.policy
        if (
            policy is not None
            and policy.event_budget is not None
            and self._steps > policy.event_budget
        ):
            raise LivelockError(
                f"interleaving exceeded the event budget "
                f"({policy.event_budget} steps) under schedule policy "
                f"{policy.name!r} — classified as livelock"
            )

    def _raise_deadlock(self) -> None:
        blocked = {}
        last_progress = {}
        for p in self._procs:
            if p.state is _State.BLOCKED:
                blocked[p.rank] = f"{p.pending!r} (stage {p.current_stage})"
                last_progress[p.rank] = p.post_time
        sched: dict = {}
        if self.policy is not None and self.policy.explores_any:
            # Embed the explored schedule so the hang reproduces from
            # the error message alone (path when a trace file is
            # arranged, the inline decision list otherwise).
            sched = dict(
                sched_policy=self.policy.name,
                sched_trace=self.policy.trace_path,
                sched_decisions=list(self.policy.decisions),
            )
        raise DeadlockError(blocked, last_progress=last_progress, **sched)

    def _step(self, proc: _Proc) -> None:
        value, proc.resume_value = proc.resume_value, None
        try:
            op = proc.coro.send(value)
        except StopIteration as stop:
            proc.state = _State.DONE
            proc.return_value = stop.value
            self._done_count += 1
            if self.trace:
                self._trace(proc, "done", "")
            return
        except WireFormatError:
            # Detected corruption must surface as itself (the typed
            # contract of the CRC check), not wrapped as a rank failure.
            raise
        except DeadlineExceededError:
            # A deadline abort is the serving layer's verdict on the
            # whole job, not one rank's failure — recovery must not
            # degrade/respawn its way past it.
            raise
        except Exception as exc:
            raise RankFailedError(
                proc.rank, exc, events=proc.stats.events
            ) from exc

        if isinstance(op, ComputeOp):
            proc.clock += op.seconds
            bucket = proc.bucket()
            bucket.comp_time += op.seconds
            bucket.add_counter(op.kind, op.count)
            if self.trace:
                self._trace(proc, "compute", f"{op.kind} dt={op.seconds:.3e} count={op.count}")
            # stays READY; the driving engine resumes it immediately.
        elif isinstance(op, IsendOp):
            request = Request(
                kind="isend", rank=proc.rank, peer=op.dst, tag=op.tag,
                nbytes=op.nbytes, post_time=proc.clock, payload=op.payload,
            )
            self._post_nonblocking(proc, request)
            proc.resume_value = request  # stays READY
        elif isinstance(op, IrecvOp):
            request = Request(
                kind="irecv", rank=proc.rank, peer=op.src, tag=op.tag,
                nbytes=0, post_time=proc.clock,
            )
            self._post_nonblocking(proc, request)
            proc.resume_value = request  # stays READY
        elif isinstance(op, (SendOp, RecvOp, SendRecvOp, WaitOp)):
            proc.state = _State.BLOCKED
            proc.pending = op
            proc.post_time = proc.clock
            if self.trace:
                self._trace(proc, "post", repr(op))
        else:
            raise SimulationError(
                f"rank {proc.rank} awaited an unknown object {op!r}; "
                "only repro.cluster.events ops may be awaited"
            )

    # --------------------------------------------------------------- pricing
    def _deliver(self, src: int, dst: int, nbytes: int, start: float) -> float:
        """Arrival time of a message, through the topology when present."""
        if self.network is None:
            return start + self.model.message_time(nbytes)
        return self.network.deliver(src, dst, nbytes, start)

    # ------------------------------------------------ nonblocking machinery
    def _post_nonblocking(self, proc: _Proc, request: Request) -> None:
        """Register an isend/irecv and try to match it immediately."""
        if not (0 <= request.peer < self.num_ranks):
            raise SimulationError(
                f"rank {proc.rank} named peer {request.peer}, outside "
                f"0..{self.num_ranks - 1}"
            )
        if request.kind == "isend":
            key = (request.rank, request.peer, request.tag)  # (src, dst, tag)
            # Exact-tag irecvs take precedence over ANY_TAG wildcards.
            counterpart = self._pending_irecvs.get(key)
            if not counterpart:
                counterpart = self._pending_irecvs.get(
                    (request.rank, request.peer, ANY_TAG)
                )
            if counterpart:
                self._complete_transfer(request, counterpart.popleft())
            else:
                self._pending_isends.setdefault(key, deque()).append(request)
        elif request.tag == ANY_TAG:
            counterpart = self._oldest_pending_isend(request.peer, request.rank)
            if counterpart is not None:
                self._complete_transfer(counterpart, request)
            else:
                key = (request.peer, request.rank, ANY_TAG)
                self._pending_irecvs.setdefault(key, deque()).append(request)
        else:
            key = (request.peer, request.rank, request.tag)
            counterpart = self._pending_isends.get(key)
            if counterpart:
                self._complete_transfer(counterpart.popleft(), request)
            else:
                self._pending_irecvs.setdefault(key, deque()).append(request)
        if self.trace:
            self._trace(proc, "post", repr(request))

    def _oldest_pending_isend(self, src: int, dst: int) -> "Request | None":
        """Pop the head of one pending ``src → dst`` isend channel.

        The ANY_TAG wildcard match.  Two invariants are pinned — no
        schedule policy can relax them:

        * **Exact before wildcard.**  An arriving isend is offered to
          exact-tag irecvs first (see :meth:`_post_nonblocking`); this
          wildcard path only ever sees messages no exact receive wants.
        * **FIFO per (src, dst, tag).**  Only deque *heads* are
          candidates, so within a channel messages deliver in post
          order (MPI non-overtaking).

        What *is* free is which channel supplies the match when several
        are non-empty.  The default — the oracle order — takes the head
        with the smallest ``(post_time, tag)``: the oldest posted
        message, exact tag value breaking equal posts.  An exploring
        :class:`~repro.cluster.schedule_policy.SchedulePolicy` may pick
        any other candidate head (on a real network any of them could
        arrive first).
        """
        candidates: list[tuple[float, int, tuple[int, int, int]]] = []
        for key, pending in self._pending_isends.items():
            if not pending or key[0] != src or key[1] != dst:
                continue
            candidates.append((pending[0].post_time, key[2], key))
        if not candidates:
            return None
        candidates.sort(key=lambda c: (c[0], c[1]))
        index = 0
        policy = self.policy
        if policy is not None and policy.explores_wildcards and len(candidates) > 1:
            index = policy.decide(
                "wildcard",
                [
                    {"post_time": post, "tag": tag, "src": src, "dst": dst}
                    for post, tag, _ in candidates
                ],
                self._decision_digest(),
            )
        return self._pending_isends[candidates[index][2]].popleft()

    def _complete_transfer(self, send_req: Request, recv_req: Request) -> None:
        """Price a matched background transfer on the receiver's link."""
        dst = recv_req.rank
        start = max(send_req.post_time, recv_req.post_time)
        begin = max(start, self._link_free[dst])
        arrival = self._deliver(send_req.rank, dst, send_req.nbytes, begin)
        self._link_free[dst] = arrival
        for request in (send_req, recv_req):
            request.matched = True
            request.arrival = arrival
        recv_req.payload = send_req.payload
        recv_req.nbytes = send_req.nbytes
        # Byte/message accounting lands in each rank's *current* stage.
        sender_bucket = self._procs[send_req.rank].bucket()
        sender_bucket.bytes_sent += send_req.nbytes
        sender_bucket.msgs_sent += 1
        recv_bucket = self._procs[dst].bucket()
        recv_bucket.bytes_recv += send_req.nbytes
        recv_bucket.msgs_recv += 1
        self._notify_waiters(send_req, recv_req)

    def _notify_waiters(self, *requests: Request) -> None:
        """Wake procs whose WaitOp just became completable."""
        for request in requests:
            waiter = request.waiter
            if waiter is None:
                continue
            request.waiter = None
            if waiter.state is _State.BLOCKED and isinstance(waiter.pending, WaitOp):
                self._try_complete_wait(waiter, waiter.pending)

    def _try_complete_wait(self, proc: _Proc, wop: WaitOp) -> bool:
        if not all(request.matched for request in wop.requests):
            return False
        arrival = max(
            (request.arrival for request in wop.requests), default=proc.post_time
        )
        completion = max(proc.post_time, arrival)
        bucket = proc.bucket()
        # Time visibly spent inside the wait is communication (the rank
        # sits in MPI_Wait); fully-overlapped transfers cost nothing.
        bucket.comm_time += max(0.0, completion - proc.post_time)
        proc.clock = max(proc.clock, completion)
        proc.resume_value = [
            request.payload if request.kind == "irecv" else None
            for request in wop.requests
        ]
        proc.state = _State.READY
        proc.pending = None
        if self.trace:
            self._trace(proc, "waitdone", f"{len(wop.requests)} reqs t={completion:.6f}")
        self._schedule(proc)
        return True

    # ------------------------------------------------------------- matching
    def _partner(self, rank: int) -> _Proc:
        if not (0 <= rank < self.num_ranks):
            raise SimulationError(f"message names rank {rank}, outside 0..{self.num_ranks - 1}")
        return self._procs[rank]

    def _try_match_recv(self, receiver: _Proc, rop: RecvOp) -> bool:
        sender = self._partner(rop.src)
        if sender.state is not _State.BLOCKED or not isinstance(sender.pending, SendOp):
            return False
        sop = sender.pending
        if sop.dst != receiver.rank:
            return False
        if rop.tag != ANY_TAG and rop.tag != sop.tag:
            return False
        start = max(sender.post_time, receiver.post_time)
        completion = self._deliver(sender.rank, receiver.rank, sop.nbytes, start)
        self._complete_comm(sender, start, completion, sent=sop.nbytes)
        self._complete_comm(receiver, start, completion, received=sop.nbytes)
        receiver.resume_value = sop.payload
        sender.resume_value = None
        if self.trace:
            self._trace(receiver, "recv", f"from {sender.rank} {sop.nbytes}B t={completion:.6f}")
            self._trace(sender, "send", f"to {receiver.rank} {sop.nbytes}B t={completion:.6f}")
        return True

    def _try_match_exchange(self, a: _Proc, aop: SendRecvOp) -> bool:
        b = self._partner(aop.peer)
        if b.rank == a.rank:
            raise SimulationError(f"rank {a.rank} attempted sendrecv with itself")
        if b.state is not _State.BLOCKED or not isinstance(b.pending, SendRecvOp):
            return False
        bop = b.pending
        if bop.peer != a.rank or bop.tag != aop.tag:
            return False
        start = max(a.post_time, b.post_time)
        # Full duplex: each side pays start-up plus its *incoming* bytes.
        completion_a = self._deliver(b.rank, a.rank, bop.nbytes, start)
        completion_b = self._deliver(a.rank, b.rank, aop.nbytes, start)
        self._complete_comm(a, start, completion_a, sent=aop.nbytes, received=bop.nbytes)
        self._complete_comm(b, start, completion_b, sent=bop.nbytes, received=aop.nbytes)
        a.resume_value = bop.payload
        b.resume_value = aop.payload
        if self.trace:
            self._trace(a, "exch", f"with {b.rank} out={aop.nbytes}B in={bop.nbytes}B")
            self._trace(b, "exch", f"with {a.rank} out={bop.nbytes}B in={aop.nbytes}B")
        return True

    def _complete_comm(
        self,
        proc: _Proc,
        transfer_start: float,
        completion: float,
        *,
        sent: int = 0,
        received: int = 0,
    ) -> None:
        if completion < proc.post_time - 1e-15:
            raise SimulationError(
                f"non-monotonic clock on rank {proc.rank}: "
                f"completion {completion} < post {proc.post_time}"
            )
        bucket = proc.bucket()
        # Split partner-wait (skew) from the transfer itself.
        bucket.wait_time += max(0.0, transfer_start - proc.post_time)
        bucket.comm_time += max(0.0, completion - max(transfer_start, proc.post_time))
        if sent:
            bucket.bytes_sent += sent
        if received:
            bucket.bytes_recv += received
        if isinstance(proc.pending, (SendOp, SendRecvOp)):
            bucket.msgs_sent += 1
        if isinstance(proc.pending, (RecvOp, SendRecvOp)):
            bucket.msgs_recv += 1
        proc.clock = max(proc.clock, completion)
        proc.state = _State.READY
        proc.pending = None
        self._schedule(proc)

    # --------------------------------------------------------------- helpers
    def _trace(self, proc: _Proc, kind: str, detail: str) -> None:
        """Record one trace event; callers test :attr:`trace` first, so a
        run without tracing never formats a detail string."""
        self.trace_events.append(
            TraceEvent(time=proc.clock, rank=proc.rank, kind=kind, detail=detail)
        )

    def _close_all(self) -> None:
        for proc in self._procs:
            if proc.coro is not None and proc.state is not _State.DONE:
                proc.coro.close()
