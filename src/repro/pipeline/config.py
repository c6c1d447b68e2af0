"""Run configuration for the sort-last system and experiment harness."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

from ..cluster.model import PRESETS, SP2, MachineModel, Network, make_network
from ..errors import ConfigurationError
from ..volume.datasets import DATASETS

__all__ = ["RunConfig"]


@dataclass(frozen=True)
class RunConfig:
    """Everything needed to execute one sort-last run.

    Attributes
    ----------
    dataset:
        Name from :data:`repro.volume.datasets.DATASETS`.
    image_size:
        Final image side in pixels (square images, as in the paper's
        384x384 / 768x768 experiments).
    num_ranks:
        Simulated processor count.  Powers of two run plain binary swap;
        other counts use the folding extension (extra ranks pre-merge
        into buddies before the swap).
    method:
        Compositing method: a registry name (``"bsbrc"``) or a
        ``"<schedule>:<codec>"`` combo (``"radix-k:rect-rle"``).
    machine:
        Machine model instance or preset name.
    rot_x / rot_y / rot_z:
        Viewpoint rotation in degrees (paper §3.2's rotation study).
    volume_shape:
        Optional override of the dataset's default voxel shape (used by
        tests to shrink workloads).
    balance_render_load:
        When true, bisection planes fall at the visible-voxel weighted
        median instead of the midpoint, equalising render work.
    method_options:
        Extra keyword options for the compositor factory (e.g.
        ``{"section": 64}`` for BSLC ablations).
    backend:
        Execution substrate for :class:`~repro.pipeline.system.SortLastSystem`:
        ``"sim"`` (discrete-event simulator, modelled time) or ``"mp"``
        (real OS processes, wall clock).
    """

    dataset: str = "engine_low"
    image_size: int = 384
    num_ranks: int = 8
    method: str = "bsbrc"
    machine: MachineModel = SP2
    rot_x: float = 20.0
    rot_y: float = 30.0
    rot_z: float = 0.0
    volume_shape: tuple[int, int, int] | None = None
    step: float = 1.0
    #: Weighted-median partitioning: balance visible-voxel render load
    #: across ranks (the paper's future-work load-balancing scheme).
    balance_render_load: bool = False
    method_options: dict[str, Any] = field(default_factory=dict)
    #: Execution backend: "sim" | "mp" (see repro.cluster.backend).
    backend: str = "sim"
    #: Per-receive blocking timeout (seconds) on real transports before a
    #: rank declares deadlock; ``None`` uses the backend default.  The
    #: simulator detects deadlock structurally and ignores this.
    comm_timeout: float | None = None
    #: Recovery policy on rank failure: one of
    #: :data:`repro.cluster.recovery.RECOVERY_POLICIES`
    #: ("abort" < "degrade" < "respawn" < "checkpoint-resume"); the two
    #: strongest replay every rank in lockstep (see DESIGN.md §5.4).
    recovery: str = "degrade"
    #: Worker liveness-stamp spacing in seconds on the mp backend;
    #: ``None`` uses the backend default, ``0`` disables heartbeats.
    heartbeat_interval: float | None = None
    #: Interconnect topology for the simulator: "flat" (the paper's
    #: contention-free link, default) or a spec string understood by
    #: :func:`repro.cluster.model.make_network` such as
    #: ``"fat-tree:radix=8"`` or ``"torus:dims=32x32"``.
    topology: str = "flat"
    #: Shared-link capacity override (bandwidth as a multiple of the base
    #: per-byte rate; ``inf`` disables contention).  ``None`` keeps the
    #: topology's default; ignored by the flat link.
    link_capacity: float | None = None

    def __post_init__(self) -> None:
        if self.dataset not in DATASETS:
            raise ConfigurationError(
                f"unknown dataset {self.dataset!r}; available: {sorted(DATASETS)}"
            )
        if self.image_size < 2:
            raise ConfigurationError(f"image_size must be >= 2, got {self.image_size}")
        if self.num_ranks < 1:
            raise ConfigurationError(f"num_ranks must be >= 1, got {self.num_ranks}")
        # Non-power-of-two counts are supported through folding (the
        # paper's future-work extension); no restriction here.
        if isinstance(self.machine, str):
            preset = PRESETS.get(self.machine)
            if preset is None:
                raise ConfigurationError(
                    f"unknown machine preset {self.machine!r}; available: {sorted(PRESETS)}"
                )
            object.__setattr__(self, "machine", preset)
        elif not isinstance(self.machine, MachineModel):
            raise ConfigurationError(f"machine must be a MachineModel or preset name")
        from ..compositing.registry import make_compositor

        # Build (and drop) the compositor so a bad method or option fails
        # here, not inside a rank program.
        make_compositor(self.method, **self.method_options)
        if self.step <= 0:
            raise ConfigurationError(f"step must be > 0, got {self.step}")
        from ..cluster.backend import BACKENDS

        if self.backend not in BACKENDS:
            raise ConfigurationError(
                f"unknown backend {self.backend!r}; available: {sorted(BACKENDS)}"
            )
        if self.comm_timeout is not None and self.comm_timeout <= 0:
            raise ConfigurationError(
                f"comm_timeout must be > 0 seconds, got {self.comm_timeout}"
            )
        from ..cluster.recovery import RECOVERY_POLICIES

        if self.recovery not in RECOVERY_POLICIES:
            raise ConfigurationError(
                f"unknown recovery policy {self.recovery!r}; "
                f"choose from {RECOVERY_POLICIES}"
            )
        if self.heartbeat_interval is not None and self.heartbeat_interval < 0:
            raise ConfigurationError(
                f"heartbeat_interval must be >= 0 seconds, got {self.heartbeat_interval}"
            )
        if self.link_capacity is not None and not (self.link_capacity > 0):
            raise ConfigurationError(
                f"link_capacity must be > 0, got {self.link_capacity!r}"
            )
        # Validate the topology spec eagerly so a typo fails at config
        # time, not deep inside a run.
        self.build_network()

    @property
    def num_pixels(self) -> int:
        return self.image_size * self.image_size

    def build_network(self) -> Network | None:
        """Instantiate the configured topology (``None`` = flat link).

        Returning ``None`` for the flat default keeps the simulator on
        its stateless fast path, which is also the bit-identity contract
        with the pre-topology engine.
        """
        spec = str(self.topology)
        name = spec.partition(":")[0].strip() or "flat"
        if name == "flat":
            if ":" in spec:
                make_network(spec, self.machine)  # validate any options
            return None  # flat has no shared links; link_capacity is moot
        return make_network(spec, self.machine, capacity=self.link_capacity)

    def with_(self, **kwargs) -> "RunConfig":
        """Derive a modified copy (sweep helper)."""
        return replace(self, **kwargs)

    def label(self) -> str:
        return (
            f"{self.dataset}/{self.image_size}px/P{self.num_ranks}/"
            f"{self.method}/{self.machine.name}"
        )
