"""End-to-end sort-last-sparse pipeline."""

from .assemble import OwnedTile, assemble_tiles, tile_from_outcome
from .config import RunConfig
from .phases import (
    GATHER_STAGE,
    Scene,
    build_scene,
    composite_phase,
    gather_phase,
    pipeline_rank_program,
    render_phase,
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
    "OwnedTile",
    "RenderJob",
    "RenderPool",
    "RenderSession",
    "RunConfig",
    "Scene",
    "SortLastSystem",
    "SystemResult",
    "assemble_final",
    "assemble_tiles",
    "build_scene",
    "composite_phase",
    "gather_phase",
    "pipeline_rank_program",
    "render_phase",
    "run_compositing",
    "shared_pool",
    "tile_from_outcome",
    "validate_ownership",
]
