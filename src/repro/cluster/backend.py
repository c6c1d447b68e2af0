"""Pluggable execution backends: one rank program, two substrates.

A *rank program* is a picklable module-level ``async def program(ctx,
*args)`` written against :class:`~repro.cluster.protocol.BaseRankContext`.
A :class:`Backend` runs ``num_ranks`` copies of it and returns a uniform
:class:`BackendRunResult`:

* :class:`SimBackend` — the discrete-event simulator; needs a
  :class:`~repro.cluster.model.MachineModel` and reports *modelled*
  virtual time (deterministic, bit-identical traces).
* :class:`MPBackend` — real OS processes over multiprocessing queues;
  reports *wall-clock* time and :mod:`repro.perf` reports per rank.

Both fill the same per-stage byte/message counters, so a program's
communication volume can be cross-checked across substrates.  Pick a
backend by name with :func:`make_backend`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from ..errors import ConfigurationError
from .model import MachineModel
from .run_timeline import RunTimeline
from .simulator import Simulator, TraceEvent
from .stats import RankStats

__all__ = [
    "Backend",
    "BackendRunResult",
    "SimBackend",
    "MPBackend",
    "BACKENDS",
    "make_backend",
]


@dataclass
class BackendRunResult:
    """Uniform outcome of running a rank program on any backend."""

    #: Backend short name: "sim" | "mp".
    backend: str
    #: What ``makespan`` measures: "modelled" virtual seconds or "wall".
    clock: str
    num_ranks: int
    returns: list[Any]
    rank_stats: list[RankStats]
    #: Modelled makespan (sim) or the largest per-rank wall time (real).
    makespan: float
    #: Simulator trace (empty unless ``trace=True`` on SimBackend).
    trace_events: list[TraceEvent] = field(default_factory=list)
    #: Per-rank wall seconds (zeros on the simulator).
    wall_times: list[float] = field(default_factory=list)
    #: Per-rank :func:`repro.perf.report` snapshots (empty on the simulator).
    rank_perf: list[dict] = field(default_factory=list)

    def timeline(
        self,
        meta: Optional[dict[str, Any]] = None,
        *,
        events: Optional[list[dict[str, Any]]] = None,
    ) -> RunTimeline:
        """Export as the unified run-timeline document.

        Per-rank fault events are harvested from the stats automatically;
        ``events`` appends orchestrator-level entries (failure
        detection, recovery, degradation) on top.
        """
        return RunTimeline.from_parts(
            backend=self.backend,
            clock=self.clock,
            rank_stats=self.rank_stats,
            makespan=self.makespan,
            wall_times=self.wall_times,
            rank_perf=self.rank_perf,
            trace_events=self.trace_events,
            meta=meta,
            events=events or None,
        )


class Backend(abc.ABC):
    """An execution substrate for rank programs."""

    #: Short name used by ``--backend`` and the timeline schema.
    name: str = "abstract"
    #: What this backend's makespan measures.
    clock: str = "wall"
    #: Whether this backend can apply a modelled ``--topology`` (only
    #: simulated interconnects can; real transports use real wires).
    supports_topology: bool = False

    @abc.abstractmethod
    def run(
        self,
        num_ranks: int,
        program,
        args: Sequence[Any] = (),
        *,
        model: Optional[MachineModel] = None,
        trace: bool = False,
        timeout: Optional[float] = None,
        network=None,
        schedule_policy=None,
    ) -> BackendRunResult:
        """Run ``program(ctx, *args)`` on ``num_ranks`` ranks.

        ``model`` is required by the simulator and ignored by real
        transports; ``trace`` enables the simulator's event trace;
        ``timeout`` bounds per-receive blocking on real transports; the
        simulator ignores it (it detects deadlock structurally).
        ``network`` (a :class:`~repro.cluster.model.Network` topology) is
        simulator-only; real transports reject a non-flat network since
        they cannot model one.  ``schedule_policy`` (a
        :class:`~repro.cluster.schedule_policy.SchedulePolicy`) hands
        the simulator's residual event-ordering freedom to the schedule
        explorer; real transports reject exploring policies — their
        delivery order comes from real hardware, not a pluggable hook.
        """

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}()"


class SimBackend(Backend):
    """Discrete-event simulation with modelled virtual time."""

    name = "sim"
    clock = "modelled"
    supports_topology = True

    def run(
        self,
        num_ranks: int,
        program,
        args: Sequence[Any] = (),
        *,
        model: Optional[MachineModel] = None,
        trace: bool = False,
        timeout: Optional[float] = None,
        network=None,
        schedule_policy=None,
    ) -> BackendRunResult:
        if model is None:
            raise ConfigurationError(
                "the sim backend needs a MachineModel (pass model=...)"
            )
        simulator = Simulator(
            num_ranks,
            model,
            trace=trace,
            network=network,
            policy=schedule_policy,
        )
        result = simulator.run(lambda ctx: program(ctx, *args))
        return BackendRunResult(
            backend=self.name,
            clock=self.clock,
            num_ranks=num_ranks,
            returns=result.returns,
            rank_stats=result.rank_stats,
            makespan=result.makespan,
            trace_events=list(simulator.trace_events),
            wall_times=[0.0] * num_ranks,
            rank_perf=[{} for _ in range(num_ranks)],
        )


class MPBackend(Backend):
    """Real OS processes over multiprocessing queues (wall clock)."""

    name = "mp"
    clock = "wall"

    def run(
        self,
        num_ranks: int,
        program,
        args: Sequence[Any] = (),
        *,
        model: Optional[MachineModel] = None,
        trace: bool = False,
        timeout: Optional[float] = None,
        network=None,
        schedule_policy=None,
    ) -> BackendRunResult:
        from .mp_backend import DEFAULT_TIMEOUT, run_rank_programs_mp

        _require_flat_network(self.name, network)
        _require_deterministic_schedule(self.name, schedule_policy)

        result = run_rank_programs_mp(
            num_ranks,
            program,
            args,
            timeout=DEFAULT_TIMEOUT if timeout is None else timeout,
        )
        return BackendRunResult(
            backend=self.name,
            clock=self.clock,
            num_ranks=num_ranks,
            returns=result.returns,
            rank_stats=result.rank_stats,
            makespan=max(result.wall_times, default=0.0),
            wall_times=result.wall_times,
            rank_perf=result.perf_reports,
        )


def _require_flat_network(backend_name: str, network) -> None:
    """Real transports cannot model a switched topology: reject early."""
    if network is not None and getattr(network, "name", "flat") != "flat":
        spec = getattr(network, "spec", None) or network.name
        supported = sorted(
            name for name, cls in BACKENDS.items() if cls.supports_topology
        )
        raise ConfigurationError(
            f"backend {backend_name!r} runs on real hardware and cannot apply "
            f"the modelled topology --topology {spec!r}; modelled topologies "
            f"need a simulated interconnect — rerun with --backend "
            f"{' or '.join(repr(n) for n in supported)}, or drop --topology "
            f"to use the real network"
        )


def _require_deterministic_schedule(backend_name: str, policy) -> None:
    """Real transports cannot explore orderings: reject early.

    Their delivery order is decided by real hardware; only the
    simulator exposes pluggable ordering freedom.  ``None`` and
    non-exploring (deterministic) policies pass through — they change
    nothing anywhere.
    """
    if policy is not None and getattr(policy, "explores_any", False):
        supported = sorted(
            name for name, cls in BACKENDS.items() if cls.name == "sim"
        )
        raise ConfigurationError(
            f"backend {backend_name!r} runs on real hardware and cannot "
            f"apply the exploring schedule policy {policy.name!r}; schedule "
            f"exploration needs the simulated engine — rerun with --backend "
            f"{' or '.join(repr(n) for n in supported)}, or use the "
            f"'deterministic' policy"
        )


#: Registry of backend short names to classes.
BACKENDS: dict[str, type[Backend]] = {
    SimBackend.name: SimBackend,
    MPBackend.name: MPBackend,
}


def make_backend(name: str) -> Backend:
    """Instantiate a backend by short name ("sim", "mp")."""
    try:
        cls = BACKENDS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown backend {name!r}; choose from {sorted(BACKENDS)}"
        ) from None
    return cls()
