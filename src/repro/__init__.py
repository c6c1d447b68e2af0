"""repro — sort-last-sparse parallel volume rendering, reproduced.

A production-quality reimplementation of *"Efficient Compositing Methods
for the Sort-Last-Sparse Parallel Volume Rendering System on Distributed
Memory Multicomputers"* (Yang, Yu, Chung; ICPP 1999): the BS / BSBR /
BSLC / BSBRC binary-swap compositing methods, a deterministic
discrete-event simulation of the SP2-class multicomputer they ran on, a
vectorized ray-casting renderer, synthetic stand-ins for the paper's CT
datasets, and an experiment harness that regenerates every table and
figure of the evaluation.

Quick start
-----------
>>> from repro import RunConfig, SortLastSystem
>>> result = SortLastSystem(
...     RunConfig(dataset="engine_low", image_size=96, num_ranks=8,
...               method="bsbrc", volume_shape=(64, 64, 28))
... ).run()
>>> result.final_image.allclose(result.reference_image())
True
>>> result.compositing.stats.t_total > 0
True
"""

from .cluster import (
    BACKENDS,
    IDEALIZED,
    PRESETS,
    SP2,
    SP2_FAST_NET,
    SP2_SLOW_NET,
    Backend,
    BaseRankContext,
    MachineModel,
    RankContext,
    RunResult,
    RunTimeline,
    Simulator,
    make_backend,
)
from .compositing import (
    PAPER_METHODS,
    BinaryTreeCompression,
    CompositeOutcome,
    Compositor,
    DirectSend,
    ParallelPipeline,
    available_methods,
    make_compositor,
    over,
    register,
)
from .errors import (
    CompositingError,
    ConfigurationError,
    DeadlockError,
    PartitionError,
    RenderError,
    ReproError,
    SimulationError,
    WireFormatError,
)
from .cluster.progress import ProgressEvent, ProgressFeed
from .pipeline import (
    RenderJob,
    RenderSession,
    RunConfig,
    SortLastSystem,
    SystemResult,
    assemble_final,
    run_compositing,
    validate_ownership,
)
from .render import Camera, SubImage, composite_sequential, render_full, render_subvolume
from .types import Extent3, Rect
from .volume import (
    DATASETS,
    PAPER_DATASETS,
    PartitionPlan,
    TransferFunction,
    VolumeGrid,
    depth_order,
    make_dataset,
    recursive_bisect,
)

#: The one place the version is written: ``pyproject.toml`` reads it
#: (``[tool.setuptools.dynamic]``) and ``CITATION.cff`` is checked
#: against it by ``tests/test_public_surface.py``.
__version__ = "1.15.0"

__all__ = [
    "BACKENDS",
    "Backend",
    "BaseRankContext",
    "BinaryTreeCompression",
    "Camera",
    "CompositeOutcome",
    "CompositingError",
    "Compositor",
    "ConfigurationError",
    "DATASETS",
    "DeadlockError",
    "DirectSend",
    "Extent3",
    "IDEALIZED",
    "MachineModel",
    "PAPER_DATASETS",
    "PAPER_METHODS",
    "PRESETS",
    "ParallelPipeline",
    "PartitionError",
    "PartitionPlan",
    "ProgressEvent",
    "ProgressFeed",
    "RankContext",
    "Rect",
    "RenderError",
    "RenderJob",
    "RenderSession",
    "ReproError",
    "RunConfig",
    "RunResult",
    "RunTimeline",
    "SP2",
    "SP2_FAST_NET",
    "SP2_SLOW_NET",
    "SimulationError",
    "Simulator",
    "SortLastSystem",
    "SubImage",
    "SystemResult",
    "TransferFunction",
    "VolumeGrid",
    "WireFormatError",
    "assemble_final",
    "available_methods",
    "composite_sequential",
    "depth_order",
    "make_backend",
    "make_compositor",
    "make_dataset",
    "over",
    "recursive_bisect",
    "register",
    "render_full",
    "render_subvolume",
    "run_compositing",
    "validate_ownership",
    "__version__",
]
