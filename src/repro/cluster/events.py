"""Awaitable operation requests understood by the cluster simulator.

Rank programs are plain ``async def`` coroutines.  They never touch an
event loop directly: every blocking action is expressed by awaiting one of
the request objects below (normally via the :class:`~repro.cluster.context.
RankContext` convenience methods).  The :class:`~repro.cluster.simulator.
Simulator` receives the request from the coroutine's ``yield``, decides
when it completes in *virtual time*, and resumes the coroutine with the
operation's result.

This mirrors how ``await`` works on real event loops, but the loop here is
a deterministic discrete-event scheduler with per-rank virtual clocks.
"""

from __future__ import annotations

from typing import Any, Generator

__all__ = [
    "Op",
    "ComputeOp",
    "SendOp",
    "RecvOp",
    "SendRecvOp",
    "IsendOp",
    "IrecvOp",
    "WaitOp",
    "Request",
    "ANY_TAG",
]

#: Wildcard tag accepted by :class:`RecvOp`.
ANY_TAG = -1


class Op:
    """Base class of all simulator requests.

    Awaiting an ``Op`` suspends the coroutine and hands the request to the
    simulator; the value the simulator injects back becomes the result of
    the ``await`` expression.
    """

    __slots__ = ()

    def __await__(self) -> Generator["Op", Any, Any]:
        result = yield self
        return result


class ComputeOp(Op):
    """Advance the local clock by ``seconds`` of computation.

    ``kind`` and ``count`` are bookkeeping only: they let the stats layer
    attribute the time to a named counter (e.g. ``"over"`` with the number
    of pixels composited) so analytic-model cross-checks can recover the
    raw operation counts.
    """

    __slots__ = ("seconds", "kind", "count")

    def __init__(self, seconds: float, kind: str = "compute", count: int = 0):
        if not (seconds >= 0.0):
            raise ValueError(f"compute seconds must be >= 0, got {seconds!r}")
        self.seconds = float(seconds)
        self.kind = kind
        self.count = int(count)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ComputeOp({self.seconds:.3e}s, kind={self.kind!r}, count={self.count})"


class SendOp(Op):
    """Blocking (rendezvous) send of ``payload`` (``nbytes`` on the wire)."""

    __slots__ = ("dst", "payload", "nbytes", "tag")

    def __init__(self, dst: int, payload: Any, nbytes: int, tag: int = 0):
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        if tag < 0:
            raise ValueError(f"send tag must be >= 0, got {tag}")
        self.dst = int(dst)
        self.payload = payload
        self.nbytes = int(nbytes)
        self.tag = int(tag)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SendOp(dst={self.dst}, nbytes={self.nbytes}, tag={self.tag})"


class RecvOp(Op):
    """Blocking receive from ``src`` (tag must match, or :data:`ANY_TAG`)."""

    __slots__ = ("src", "tag")

    def __init__(self, src: int, tag: int = ANY_TAG):
        self.src = int(src)
        self.tag = int(tag)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RecvOp(src={self.src}, tag={self.tag})"


class SendRecvOp(Op):
    """Simultaneous exchange with ``peer`` (the binary-swap primitive).

    Both ranks of a pair must post a matching ``SendRecvOp`` naming each
    other with the same tag.  Each side's result is the peer's payload.
    Using a single primitive (rather than careful send/recv ordering)
    makes pairwise exchange deadlock-free by construction, exactly like
    ``MPI_Sendrecv``.
    """

    __slots__ = ("peer", "payload", "nbytes", "tag")

    def __init__(self, peer: int, payload: Any, nbytes: int, tag: int = 0):
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        if tag < 0:
            raise ValueError(f"sendrecv tag must be >= 0, got {tag}")
        self.peer = int(peer)
        self.payload = payload
        self.nbytes = int(nbytes)
        self.tag = int(tag)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SendRecvOp(peer={self.peer}, nbytes={self.nbytes}, tag={self.tag})"


class Request:
    """Handle for a nonblocking operation (returned by isend/irecv).

    Filled in by the simulator when the operation matches its
    counterpart: ``arrival`` is the virtual time the transfer finishes on
    the receiver's link, ``payload`` the delivered object (receives
    only).  Await :class:`WaitOp` (via ``ctx.wait``/``ctx.wait_all``) to
    block until completion.
    """

    __slots__ = ("kind", "rank", "peer", "tag", "nbytes", "post_time",
                 "payload", "matched", "arrival", "waiter")

    def __init__(self, kind: str, rank: int, peer: int, tag: int,
                 nbytes: int, post_time: float, payload: Any = None):
        self.kind = kind  # "isend" | "irecv"
        self.rank = rank
        self.peer = peer
        self.tag = tag
        self.nbytes = nbytes
        self.post_time = post_time
        self.payload = payload
        self.matched = False
        self.arrival: float | None = None
        # Event-engine hook: the proc blocked in a WaitOp on this request
        # (set by the scheduler so a late match can wake the waiter).
        self.waiter: Any = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = f"arrival={self.arrival:.6f}" if self.matched else "pending"
        return f"Request({self.kind}, rank={self.rank}, peer={self.peer}, {state})"


class IsendOp(Op):
    """Nonblocking (eager, buffered) send: returns a :class:`Request`
    immediately; the transfer runs in the background and the request
    completes when the bytes have cleared the receiver's link."""

    __slots__ = ("dst", "payload", "nbytes", "tag")

    def __init__(self, dst: int, payload: Any, nbytes: int, tag: int = 0):
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        if tag < 0:
            raise ValueError(f"isend tag must be >= 0, got {tag}")
        self.dst = int(dst)
        self.payload = payload
        self.nbytes = int(nbytes)
        self.tag = int(tag)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"IsendOp(dst={self.dst}, nbytes={self.nbytes}, tag={self.tag})"


class IrecvOp(Op):
    """Nonblocking receive: returns a :class:`Request` immediately.

    Matches isends from ``src`` by exact tag in FIFO post order, or by
    :data:`ANY_TAG` (the default via ``ctx.irecv``), which accepts the
    oldest pending isend from ``src`` regardless of tag.  Nonblocking
    ops only pair with nonblocking counterparts — mixing isend with a
    blocking recv is rejected by the matcher staying silent (and
    surfaces as a deadlock), keeping the two protocols' timing
    semantics separate.
    """

    __slots__ = ("src", "tag")

    def __init__(self, src: int, tag: int = ANY_TAG):
        if tag < 0 and tag != ANY_TAG:
            raise ValueError(f"irecv tag must be >= 0 or ANY_TAG, got {tag}")
        self.src = int(src)
        self.tag = int(tag)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"IrecvOp(src={self.src}, tag={self.tag})"


class WaitOp(Op):
    """Block until every request in ``requests`` has completed."""

    __slots__ = ("requests",)

    def __init__(self, requests: list):
        self.requests = list(requests)
        for request in self.requests:
            if not isinstance(request, Request):
                raise ValueError(f"WaitOp takes Requests, got {type(request).__name__}")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        done = sum(1 for r in self.requests if r.matched)
        return f"WaitOp({done}/{len(self.requests)} matched)"
