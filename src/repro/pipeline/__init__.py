"""End-to-end sort-last-sparse pipeline."""

from .config import RunConfig
from .phases import (
    GATHER_STAGE,
    Scene,
    build_scene,
    composite_phase,
    gather_phase,
    pipeline_rank_program,
)
from .render_pool import RenderPool, shared_pool
from .session import RenderJob, RenderSession
from .system import (
    CompositingRun,
    SortLastSystem,
    SystemResult,
    assemble_final,
    run_compositing,
    validate_ownership,
)

__all__ = [
    "CompositingRun",
    "GATHER_STAGE",
    "RenderJob",
    "RenderPool",
    "RenderSession",
    "RunConfig",
    "Scene",
    "SortLastSystem",
    "SystemResult",
    "assemble_final",
    "build_scene",
    "composite_phase",
    "gather_phase",
    "pipeline_rank_program",
    "run_compositing",
    "shared_pool",
    "validate_ownership",
]
