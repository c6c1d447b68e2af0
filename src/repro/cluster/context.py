"""Simulator implementation of the rank-context protocol.

A rank program is an ``async def`` function taking a
:class:`~repro.cluster.protocol.BaseRankContext`.  This module provides
the discrete-event-simulator implementation: every verb awaits a
:mod:`repro.cluster.events` op that the
:class:`~repro.cluster.simulator.Simulator` prices in virtual time via
the machine model, and the charging helpers translate *operation
counts* into seconds so algorithm code never hard-codes cost constants.

Example
-------
>>> async def program(ctx):
...     peer = ctx.rank ^ 1
...     data = await ctx.sendrecv(peer, b"x" * ctx.rank, tag=0)
...     await ctx.charge_over(100)
...     return len(data)
"""

from __future__ import annotations

from typing import Any, Optional

from ..errors import ConfigurationError
from .events import (
    ANY_TAG,
    ComputeOp,
    IrecvOp,
    IsendOp,
    RecvOp,
    Request,
    SendOp,
    SendRecvOp,
    WaitOp,
)
from .faults import check_received
from .model import MachineModel
from .protocol import BaseRankContext, payload_nbytes
from .stats import RankStats

__all__ = ["RankContext", "payload_nbytes"]


class RankContext(BaseRankContext):
    """The view a single simulated rank has of the machine."""

    backend_name = "simulator"

    def __init__(self, simulator, proc):
        self._simulator = simulator
        self._proc = proc

    # ---- identity ----------------------------------------------------------
    @property
    def rank(self) -> int:
        return self._proc.rank

    @property
    def size(self) -> int:
        return self._simulator.num_ranks

    @property
    def model(self) -> MachineModel:
        return self._simulator.model

    @property
    def stats(self) -> RankStats:
        return self._proc.stats

    # ---- fault injection ----------------------------------------------------
    def install_fault_injector(self, injector) -> None:
        """Install the injector, wiring the simulator's schedule policy
        into its probabilistic firing points when the policy explores
        fault freedom (see :attr:`RankFaultInjector.decider`)."""
        super().install_fault_injector(injector)
        policy = getattr(self._simulator, "policy", None)
        if injector is not None and policy is not None and policy.explores:
            injector.decider = policy.fault_decision

    # ---- staging ------------------------------------------------------------
    def _set_stage(self, stage: int) -> None:
        self._proc.current_stage = int(stage)

    @property
    def current_stage(self) -> int:
        return self._proc.current_stage

    # ---- fault plumbing ------------------------------------------------------
    async def _apply_send_faults(self, verb: str, dst: int, tag: int, payload, size: int):
        """Evaluate injected faults for one outgoing message.

        Returns ``(drop, payload)``: delays are charged as modelled
        compute time (a stalled sender), corruption swaps the payload
        for a :class:`~repro.cluster.faults.CorruptFrame`, and a drop
        tells the caller to skip posting the op entirely.
        """
        faults = self._message_faults(verb, dst, tag)
        if faults is None:
            return False, payload
        if faults.delay > 0.0:
            await ComputeOp(faults.delay, kind="fault_delay")
        if faults.drop:
            return True, payload
        if faults.corrupt:
            payload = self._fault_injector.wrap_for_sim(payload, size)
        return False, payload

    def _checked(self, payload, src: int, tag: int):
        return check_received(
            payload, rank=self.rank, src=src, tag=tag, backend=self.backend_name
        )

    # ---- computation ---------------------------------------------------------
    async def compute(self, seconds: float, *, kind: str = "compute", count: int = 0) -> None:
        """Advance this rank's clock by ``seconds`` of local computation."""
        await ComputeOp(seconds, kind=kind, count=count)

    def _op_seconds(self, kind: str, count: int) -> float:
        """Machine-model pricing of ``count`` operations of ``kind``."""
        model = self.model
        pricer = {
            "over": model.over_time,
            "encode": model.encode_time,
            "bound": model.bound_time,
            "pack": model.pack_time,
        }[kind]
        return pricer(count)

    # ---- point to point --------------------------------------------------------
    async def send(self, dst: int, payload: Any, *, nbytes: Optional[int] = None, tag: int = 0):
        """Blocking send (rendezvous semantics, like ``MPI_Ssend``)."""
        self._check_peer(dst)
        size = payload_nbytes(payload) if nbytes is None else int(nbytes)
        dropped, payload = await self._apply_send_faults("send", dst, tag, payload, size)
        if dropped:
            return
        await SendOp(dst, payload, size, tag=tag)

    async def recv(self, src: int, *, tag: int = ANY_TAG) -> Any:
        """Blocking receive from ``src``; returns the payload."""
        self._check_peer(src)
        return self._checked(await RecvOp(src, tag=tag), src, tag)

    async def sendrecv(
        self, peer: int, payload: Any, *, nbytes: Optional[int] = None, tag: int = 0
    ) -> Any:
        """Full-duplex pairwise exchange; returns the peer's payload.

        This is the binary-swap primitive: deadlock-free by construction,
        each side pays ``Ts + incoming_bytes·Tc``.
        """
        self._check_peer(peer)
        if peer == self.rank:
            raise ConfigurationError(f"rank {self.rank} cannot sendrecv with itself")
        size = payload_nbytes(payload) if nbytes is None else int(nbytes)
        dropped, payload = await self._apply_send_faults(
            "sendrecv", peer, tag, payload, size
        )
        if dropped:
            # The faulty rank skips the whole exchange (its NIC died
            # mid-call): it gets nothing back and the partner blocks
            # until deadlock detection or its own receive timeout.
            return None
        return self._checked(await SendRecvOp(peer, payload, size, tag=tag), peer, tag)

    # ---- nonblocking ---------------------------------------------------------------
    async def isend(
        self, dst: int, payload: Any, *, nbytes: Optional[int] = None, tag: int = 0
    ):
        """Nonblocking send; returns a :class:`~repro.cluster.events.Request`.

        The transfer runs in the background (serialized on the receiver's
        link); complete it with :meth:`wait`/:meth:`wait_all`.
        """
        self._check_peer(dst)
        size = payload_nbytes(payload) if nbytes is None else int(nbytes)
        dropped, payload = await self._apply_send_faults("isend", dst, tag, payload, size)
        if dropped:
            # Hand back an already-completed request; the message itself
            # vanished, so the receiver's irecv never matches.
            request = Request(
                kind="isend", rank=self.rank, peer=dst, tag=tag,
                nbytes=size, post_time=self._proc.clock,
            )
            request.matched = True
            request.arrival = self._proc.clock
            return request
        return await IsendOp(dst, payload, size, tag=tag)

    async def irecv(self, src: int, *, tag: int = ANY_TAG):
        """Nonblocking receive; returns a Request whose payload is
        available after :meth:`wait`."""
        self._check_peer(src)
        return await IrecvOp(src, tag=tag)

    async def wait(self, request) -> Any:
        """Block until ``request`` completes; returns its payload (irecv)
        or ``None`` (isend)."""
        results = await WaitOp([request])
        return self._checked(results[0], request.peer, request.tag)

    async def wait_all(self, requests) -> list:
        """Block until every request completes; returns payloads in order."""
        requests = list(requests)
        results = await WaitOp(requests)
        return [
            self._checked(payload, request.peer, request.tag)
            for payload, request in zip(results, requests)
        ]

    # ---- misc ----------------------------------------------------------------------
    def now(self) -> float:
        """This rank's virtual clock (modelled seconds since run start)."""
        return self._proc.clock

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RankContext(rank={self.rank}, size={self.size}, model={self.model.name})"
