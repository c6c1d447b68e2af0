"""Machine cost model for the simulated distributed-memory multicomputer.

The paper analyses every compositing method with a linear communication
model and per-pixel computation constants (its eqs. (1)-(8)):

* ``Ts``      — start-up (latency) time per message, seconds
* ``Tc``      — transmission time per byte, seconds
* ``To``      — time of one *over* operation per pixel, seconds
* ``Tencode`` — run-length-encoding time per scanned pixel, seconds
* ``Tbound``  — bounding-rectangle scan time per pixel (first stage), seconds

The :data:`SP2` preset is calibrated against Table 1 of the paper so that
the plain binary-swap numbers land in the right regime: at ``P=2`` on a
384x384 image, BS composites ``A/2 = 73728`` pixels (~298 ms measured →
``To ≈ 4.0 µs``) and ships ``16 * A/2`` bytes (~29 ms measured →
``Tc ≈ 25 ns/byte ≈ 40 MB/s``, consistent with the SP2 High Performance
Switch).  Absolute agreement with the 1999 testbed is *not* a goal; the
constants only need to preserve the computation/communication balance so
that the paper's crossovers reproduce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from ..errors import ConfigurationError

__all__ = [
    "MachineModel",
    "SP2",
    "SP2_FAST_NET",
    "SP2_SLOW_NET",
    "IDEALIZED",
    "T3E",
    "ETHERNET_CLUSTER",
    "MODERN_CLUSTER",
    "PRESETS",
    "Network",
    "FlatNetwork",
    "ContentionNetwork",
    "FatTreeNetwork",
    "TorusNetwork",
    "DragonflyNetwork",
    "NETWORKS",
    "make_network",
]


@dataclass(frozen=True, slots=True)
class MachineModel:
    """Linear cost model of one node + interconnect of the multicomputer.

    All times are in **seconds**.  Instances are immutable; use
    :meth:`with_overrides` to derive variants for sensitivity sweeps.
    """

    name: str
    #: Message start-up latency (per message), seconds.
    ts: float
    #: Transmission time per byte, seconds.
    tc: float
    #: One *over* composite per pixel, seconds.
    to: float
    #: Run-length encode scan per pixel, seconds.
    tencode: float
    #: Bounding-rectangle scan per pixel (initial full-image scan), seconds.
    tbound: float
    #: Pack/copy cost per byte moved into a send buffer, seconds.  The paper
    #: folds buffer packing into computation time; a small per-byte constant
    #: models the ``memcpy`` traffic of steps 8-12 of the BSBRC algorithm.
    tpack: float = 0.0

    def __post_init__(self) -> None:
        for field in ("ts", "tc", "to", "tencode", "tbound", "tpack"):
            value = getattr(self, field)
            if not (value >= 0.0):  # also rejects NaN
                raise ConfigurationError(f"MachineModel.{field} must be >= 0, got {value!r}")

    # ---- cost helpers ----------------------------------------------------
    def message_time(self, nbytes: int) -> float:
        """Time to move one ``nbytes`` message across the network."""
        if nbytes < 0:
            raise ConfigurationError(f"nbytes must be >= 0, got {nbytes}")
        return self.ts + nbytes * self.tc

    def transfer_time(self, nbytes: int) -> float:
        """Per-byte portion only (no start-up)."""
        if nbytes < 0:
            raise ConfigurationError(f"nbytes must be >= 0, got {nbytes}")
        return nbytes * self.tc

    def over_time(self, npixels: int) -> float:
        """Time to composite ``npixels`` pixels with the over operator."""
        if npixels < 0:
            raise ConfigurationError(f"npixels must be >= 0, got {npixels}")
        return npixels * self.to

    def encode_time(self, npixels: int) -> float:
        """Time to RLE-scan ``npixels`` pixels."""
        if npixels < 0:
            raise ConfigurationError(f"npixels must be >= 0, got {npixels}")
        return npixels * self.tencode

    def bound_time(self, npixels: int) -> float:
        """Time to scan ``npixels`` pixels for the initial bounding rect."""
        if npixels < 0:
            raise ConfigurationError(f"npixels must be >= 0, got {npixels}")
        return npixels * self.tbound

    def pack_time(self, nbytes: int) -> float:
        """Time to pack ``nbytes`` into a send buffer."""
        if nbytes < 0:
            raise ConfigurationError(f"nbytes must be >= 0, got {nbytes}")
        return nbytes * self.tpack

    def with_overrides(self, **kwargs: float) -> "MachineModel":
        """Return a copy with some constants replaced (for sweeps)."""
        return replace(self, **kwargs)


#: Calibrated IBM SP2 (POWER2 66.7 MHz + High Performance Switch) preset.
SP2 = MachineModel(
    name="sp2",
    ts=50e-6,
    tc=25e-9,  # ~40 MB/s effective point-to-point bandwidth
    to=4.0e-6,
    tencode=0.80e-6,
    tbound=0.15e-6,
    tpack=1.0e-9,
)

#: SP2 node speed with a 4x faster network (sensitivity study).
SP2_FAST_NET = SP2.with_overrides(name="sp2-fast-net", tc=SP2.tc / 4.0)

#: SP2 node speed with a 4x slower network (sensitivity study).
SP2_SLOW_NET = SP2.with_overrides(name="sp2-slow-net", tc=SP2.tc * 4.0)

#: Zero-latency, zero-cost machine — useful in tests where only the data
#: flow (not the timing) is under test.
IDEALIZED = MachineModel(
    name="idealized", ts=0.0, tc=0.0, to=0.0, tencode=0.0, tbound=0.0, tpack=0.0
)

# --- other machine architectures (paper §5, future work #3) ----------------
#: Cray T3E-class node/network: ~2x the SP2's CPU speed, a much faster,
#: lower-latency torus (~300 MB/s, ~10 us) — compute/communication balance
#: tilts strongly toward computation, favouring the cheap-CPU methods.
T3E = MachineModel(
    name="t3e",
    ts=10e-6,
    tc=3.3e-9,
    to=2.0e-6,
    tencode=0.40e-6,
    tbound=0.075e-6,
    tpack=0.5e-9,
)

#: Commodity Ethernet cluster of SP2-era workstations: similar CPUs but a
#: shared 100 Mb/s network with high start-up cost — the regime where
#: message-size reduction (BSLC/BSBRC) matters most.
ETHERNET_CLUSTER = MachineModel(
    name="ethernet-cluster",
    ts=500e-6,
    tc=100e-9,
    to=4.0e-6,
    tencode=0.80e-6,
    tbound=0.15e-6,
    tpack=1.0e-9,
)

#: A modern many-core cluster node (~1000x the POWER2's per-pixel speed)
#: with 100 Gb/s-class fabric: both terms shrink, latency dominates tiny
#: messages — the regime where the paper's CPU/byte trade-offs compress.
MODERN_CLUSTER = MachineModel(
    name="modern-cluster",
    ts=2e-6,
    tc=0.1e-9,
    to=4.0e-9,
    tencode=0.8e-9,
    tbound=0.15e-9,
    tpack=0.01e-9,
)

PRESETS: dict[str, MachineModel] = {
    m.name: m
    for m in (
        SP2,
        SP2_FAST_NET,
        SP2_SLOW_NET,
        IDEALIZED,
        T3E,
        ETHERNET_CLUSTER,
        MODERN_CLUSTER,
    )
}


# ===========================================================================
# Network / Topology plane
# ===========================================================================
#
# The paper prices every message with the flat link ``Ts + nbytes*Tc`` —
# adequate for the SP2's P<=64 crossover study, but a contention-blind
# model cannot be trusted for at-scale (P=1024+) experiments where many
# messages share switch uplinks or torus links.  A :class:`Network`
# decides *when a message arrives* given who else is using the wires;
# the :class:`MachineModel` still prices the endpoint cost, so the flat
# default reproduces the legacy simulator bit-for-bit and every
# topology's arrival times are pointwise >= the flat ones (contention
# only ever delays).


class Network:
    """Pluggable interconnect topology: prices message *arrival* times.

    The simulator asks :meth:`deliver` when each matched transfer
    arrives; stateful subclasses keep per-link busy-until queues so that
    transfers sharing a link serialize.  :meth:`reset` is called once
    per simulation run with the rank count, and must clear any queues so
    a network instance can be reused across runs.
    """

    name = "abstract"

    #: The CLI spec string this instance was built from (stamped by
    #: :func:`make_network`); error messages quote it so users see the
    #: ``--topology`` value they typed, not just the class name.
    spec: "str | None" = None

    def __init__(self, model: MachineModel):
        self.model = model
        self.num_ranks = 0

    def reset(self, num_ranks: int) -> None:
        """Bind to a run's rank count and drop all contention state."""
        self.num_ranks = int(num_ranks)

    def deliver(self, src: int, dst: int, nbytes: int, start: float) -> float:
        """Arrival time of an ``nbytes`` message injected at ``start``."""
        raise NotImplementedError

    def describe(self) -> dict:
        """JSON-friendly summary for run timelines and benchmarks."""
        return {"topology": self.name}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}({self.model.name})"


class FlatNetwork(Network):
    """The paper's flat link: every pair connected at full bandwidth.

    Stateless — ``arrival = start + Ts + nbytes*Tc`` — and therefore
    bit-identical to the pre-topology simulator on every workload.
    """

    name = "flat"

    def deliver(self, src: int, dst: int, nbytes: int, start: float) -> float:
        return start + self.model.message_time(nbytes)


class ContentionNetwork(Network):
    """Base of the switched topologies: per-link bandwidth sharing.

    A message first pays the flat endpoint cost ``Ts + nbytes*Tc`` (the
    topology never undercuts the paper's linear model), then crosses the
    *shared* links on its route in order.  Each crossing holds the link
    for ``hop_latency + nbytes*Tc/capacity`` and crossings of one link
    serialize in delivery order — ``capacity`` is the link's bandwidth
    as a multiple of the base per-byte rate.  An infinite-capacity,
    zero-latency link is free and keeps no state, which degrades every
    topology here to *exact* flat-link timings (property-tested).
    """

    name = "contention"

    def __init__(
        self,
        model: MachineModel,
        *,
        capacity: float = 4.0,
        hop_latency: float = 0.0,
    ):
        super().__init__(model)
        if not (capacity > 0.0):  # also rejects NaN
            raise ConfigurationError(f"link capacity must be > 0, got {capacity!r}")
        if not (hop_latency >= 0.0):
            raise ConfigurationError(f"hop_latency must be >= 0, got {hop_latency!r}")
        self.capacity = float(capacity)
        self.hop_latency = float(hop_latency)
        self._busy: dict = {}

    def reset(self, num_ranks: int) -> None:
        super().reset(num_ranks)
        self._busy = {}

    def route(self, src: int, dst: int) -> list:
        """Hashable keys of the shared links a message crosses, in order."""
        raise NotImplementedError

    def capacity_of(self, link) -> float:
        """Bandwidth multiple of one link (uniform unless overridden)."""
        return self.capacity

    def _cross(self, link, t: float, nbytes: int) -> float:
        capacity = self.capacity_of(link)
        if capacity == math.inf and self.hop_latency == 0.0:
            return t  # free link: no queue, no state
        begin = self._busy.get(link, 0.0)
        if begin < t:
            begin = t
        done = begin + self.hop_latency + nbytes * self.model.tc / capacity
        self._busy[link] = done
        return done

    def deliver(self, src: int, dst: int, nbytes: int, start: float) -> float:
        t = start + self.model.message_time(nbytes)
        for link in self.route(src, dst):
            t = self._cross(link, t, nbytes)
        return t

    def describe(self) -> dict:
        return {
            "topology": self.name,
            "capacity": self.capacity,
            "hop_latency": self.hop_latency,
        }


class FatTreeNetwork(ContentionNetwork):
    """Switched fat-tree: ``radix`` ranks per leaf switch, shared up/down
    links through the core.

    Intra-switch traffic sees the flat link; traffic between switches
    crosses the source switch's uplink and the destination switch's
    downlink, both shared by every rank of that switch.  A single-switch
    instance (``radix >= P``) never touches a shared link and is exactly
    flat regardless of capacity.
    """

    name = "fat-tree"

    def __init__(
        self,
        model: MachineModel,
        *,
        radix: int = 16,
        capacity: float = 4.0,
        hop_latency: float = 0.0,
    ):
        super().__init__(model, capacity=capacity, hop_latency=hop_latency)
        if int(radix) < 1:
            raise ConfigurationError(f"fat-tree radix must be >= 1, got {radix}")
        self.radix = int(radix)

    def route(self, src: int, dst: int) -> list:
        up, down = src // self.radix, dst // self.radix
        if up == down:
            return []
        return [("up", up), ("down", down)]

    def describe(self) -> dict:
        out = super().describe()
        out["radix"] = self.radix
        if self.num_ranks:
            out["switches"] = -(-self.num_ranks // self.radix)
        return out


def _grid_dims(count: int) -> tuple[int, int]:
    """Nearest-to-square factorization ``rows * cols == count``."""
    best = (1, count)
    for rows in range(1, int(math.isqrt(count)) + 1):
        if count % rows == 0:
            best = (rows, count // rows)
    return best


class TorusNetwork(ContentionNetwork):
    """2-D torus with dimension-ordered routing over directed links.

    Ranks map row-major onto a near-square ``rows x cols`` grid (or an
    explicit ``dims``); a message walks its column ring first, then its
    row ring, taking the shorter wrap direction, and every directed link
    it crosses is a shared contention queue.  Long-haul partners (the
    late binary-swap stages) therefore pay for every intermediate hop —
    the effect a flat link hides.
    """

    name = "torus"

    def __init__(
        self,
        model: MachineModel,
        *,
        capacity: float = 1.0,
        hop_latency: float = 0.0,
        dims: "tuple[int, int] | None" = None,
    ):
        super().__init__(model, capacity=capacity, hop_latency=hop_latency)
        if dims is not None:
            dims = (int(dims[0]), int(dims[1]))
            if dims[0] < 1 or dims[1] < 1:
                raise ConfigurationError(f"torus dims must be >= 1, got {dims}")
        self.dims = dims
        self.shape: tuple[int, int] = (1, 1)

    def reset(self, num_ranks: int) -> None:
        super().reset(num_ranks)
        if self.dims is not None:
            if self.dims[0] * self.dims[1] != num_ranks:
                raise ConfigurationError(
                    f"torus dims {self.dims} do not tile {num_ranks} ranks"
                )
            self.shape = self.dims
        else:
            self.shape = _grid_dims(num_ranks)

    @staticmethod
    def _ring_steps(pos: int, target: int, size: int) -> list[tuple[int, int]]:
        """(position, step) pairs along one ring, shortest wrap direction."""
        if pos == target or size < 2:
            return []
        forward = (target - pos) % size
        backward = (pos - target) % size
        step = 1 if forward <= backward else -1
        hops = []
        while pos != target:
            hops.append((pos, step))
            pos = (pos + step) % size
        return hops

    def route(self, src: int, dst: int) -> list:
        rows, cols = self.shape
        r0, c0 = divmod(src, cols)
        r1, c1 = divmod(dst, cols)
        links: list = []
        for col, step in self._ring_steps(c0, c1, cols):
            links.append(("x", r0, col, step))
        for row, step in self._ring_steps(r0, r1, rows):
            links.append(("y", c1, row, step))
        return links

    def describe(self) -> dict:
        out = super().describe()
        out["dims"] = list(self.shape)
        return out


class DragonflyNetwork(ContentionNetwork):
    """Dragonfly-style hierarchy: all-to-all groups over global links.

    Ranks split into groups of ``group_size`` (default ``~sqrt(P)``,
    the balanced dragonfly sizing).  Intra-group traffic is flat;
    inter-group traffic crosses the source group's exit link, one global
    link per ordered group pair (typically the narrow resource —
    ``global_capacity``), and the destination group's entry link.
    """

    name = "dragonfly"

    def __init__(
        self,
        model: MachineModel,
        *,
        group_size: "int | None" = None,
        capacity: float = 4.0,
        global_capacity: float = 1.0,
        hop_latency: float = 0.0,
    ):
        super().__init__(model, capacity=capacity, hop_latency=hop_latency)
        if group_size is not None and int(group_size) < 1:
            raise ConfigurationError(f"group_size must be >= 1, got {group_size}")
        if not (global_capacity > 0.0):
            raise ConfigurationError(
                f"global_capacity must be > 0, got {global_capacity!r}"
            )
        self._group_size = None if group_size is None else int(group_size)
        self.global_capacity = float(global_capacity)
        self.group_size = 1

    def reset(self, num_ranks: int) -> None:
        super().reset(num_ranks)
        if self._group_size is not None:
            self.group_size = self._group_size
        else:
            self.group_size = max(1, round(math.sqrt(num_ranks)))

    def route(self, src: int, dst: int) -> list:
        a, b = src // self.group_size, dst // self.group_size
        if a == b:
            return []
        return [("exit", a), ("global", a, b), ("entry", b)]

    def capacity_of(self, link) -> float:
        return self.global_capacity if link[0] == "global" else self.capacity

    def describe(self) -> dict:
        out = super().describe()
        out["group_size"] = self.group_size
        out["global_capacity"] = self.global_capacity
        return out


#: Registry of topology names to network classes (see :func:`make_network`).
NETWORKS: dict[str, type[Network]] = {
    FlatNetwork.name: FlatNetwork,
    FatTreeNetwork.name: FatTreeNetwork,
    TorusNetwork.name: TorusNetwork,
    DragonflyNetwork.name: DragonflyNetwork,
}


def _coerce_option(raw: str):
    """Parse one ``key=value`` right-hand side from a topology spec."""
    text = raw.strip()
    if text.lower() in ("inf", "infinite"):
        return math.inf
    if "x" in text:
        parts = text.split("x")
        if all(p.strip().isdigit() for p in parts) and len(parts) == 2:
            return (int(parts[0]), int(parts[1]))
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        raise ConfigurationError(f"cannot parse topology option value {raw!r}") from None


def make_network(spec: "str | Network | None", model: MachineModel) -> Network:
    """Build a :class:`Network` from a CLI-style spec string.

    ``spec`` is ``None``/``"flat"`` for the legacy flat link, a bare
    topology name (``"fat-tree"``, ``"torus"``, ``"dragonfly"``), or a
    name with options: ``"fat-tree:radix=8,capacity=2"``,
    ``"torus:dims=32x32"``, ``"dragonfly:global_capacity=0.5"``.  Option
    values parse as int/float, ``inf``, or ``AxB`` dims tuples.  An
    already-built network passes through unchanged.
    """
    if isinstance(spec, Network):
        return spec
    name, _, params = ("flat" if spec is None else str(spec)).partition(":")
    name = name.strip() or "flat"
    cls = NETWORKS.get(name)
    if cls is None:
        raise ConfigurationError(
            f"unknown topology {name!r}; choose from {sorted(NETWORKS)}"
        )
    kwargs: dict = {}
    if params:
        for item in params.split(","):
            key, eq, raw = item.partition("=")
            if not eq:
                raise ConfigurationError(
                    f"malformed topology option {item!r} (expected key=value)"
                )
            kwargs[key.strip().replace("-", "_")] = _coerce_option(raw)
    try:
        network = cls(model, **kwargs)
    except TypeError:
        raise ConfigurationError(
            f"topology {name!r} does not accept options {sorted(kwargs)}"
        ) from None
    network.spec = name if spec is None else str(spec)
    return network
