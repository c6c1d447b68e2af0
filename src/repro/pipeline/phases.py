"""Backend-agnostic pipeline phases: partition → render → composite → gather.

Each phase is a function parameterized by a
:class:`~repro.cluster.protocol.BaseRankContext`, so the *entire*
sort-last-sparse pipeline — not just compositing — runs unchanged on the
simulator and on multiprocessing.
:func:`pipeline_rank_program` chains the phases into the single
module-level (hence picklable) rank program that every backend executes.

Phase semantics:

* **partition** (:func:`build_scene`) — deterministic host/rank-local
  setup: dataset, camera, bisection (or folded) plan.  Runs identically
  on every rank; results are memoized in-process.
* **render** (:func:`render_phase`) — embarrassingly parallel, no
  communication; uses the batched ray marcher and an optional
  ``REPRO_CACHE_DIR`` on-disk per-rank subimage cache.  No model time
  is charged: the paper measures compositing only.
* **composite** (:func:`composite_phase`) — the measured phase; runs the
  configured method (folding-wrapped on non-power-of-two plans).
* **fused render+composite** (:func:`fused_render_composite_phase`) —
  taken instead of the two separate phases when the method is
  tile-routed and the plan is not folded: the rank's ray setup is built
  once, each tile row is marched once, and its tiles enter the tile
  router while later rows are still rendering.  Per-pixel ray
  independence makes the result bit-identical to render-then-composite.
* **gather** (:func:`gather_phase`) — owned tiles flow to rank 0 over
  the same substrate, bucketed under :data:`GATHER_STAGE` so the
  compositing-stage stats stay separable.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from .. import perf
from ..cache import entry_path, load_entry, store_entry
from ..cluster.collectives import gather
from ..cluster.protocol import BaseRankContext
from ..compositing.base import CompositeOutcome, Compositor
from ..compositing.folding import FoldedCompositor
from ..compositing.registry import TILE_ROUTED, make_compositor
from ..errors import RenderError
from ..render.camera import Camera
from ..render.image import SubImage
from ..render.raycast import RaySetup
from ..types import Rect
from ..volume.datasets import make_dataset
from ..volume.folded import FoldedPartition, partition_folded
from ..volume.partition import PartitionPlan, recursive_bisect, render_load_weights
from .assemble import OwnedTile, assemble_tiles, tile_from_outcome
from .config import RunConfig
from .render_pool import Pending, RenderPool

__all__ = [
    "GATHER_STAGE",
    "Scene",
    "build_scene",
    "render_task",
    "RankRender",
    "render_phase",
    "composite_phase",
    "fused_render_composite_phase",
    "gather_phase",
    "compositor_for",
    "pipeline_rank_program",
]

#: Stage bucket used for the final image gather (outside the paper's
#: measured compositing stages, which are ``PRE_STAGE`` and ``0..log2P-1``).
GATHER_STAGE = 1_000_000

#: Bump when the renderer's output changes intentionally (per-rank cache).
#: v2: the cache key carries the rendered extent, so degraded reruns
#: (survivors covering merged blocks) never collide with clean runs.
_RENDER_CACHE_VERSION = 2


class Scene(NamedTuple):
    """Deterministic per-run setup shared by every phase."""

    volume: object
    transfer: object
    camera: Camera
    plan: "PartitionPlan | FoldedPartition"


# In-process memo: the scene build is identical on every rank, and under
# the fork-based multiprocessing backend workers inherit the parent's
# populated memo, so each rank re-derives nothing.
_SCENE_MEMO: dict[tuple, Scene] = {}


def _scene_key(cfg: RunConfig) -> tuple:
    return (
        cfg.dataset,
        cfg.volume_shape,
        cfg.image_size,
        cfg.rot_x,
        cfg.rot_y,
        cfg.rot_z,
        cfg.step,
        cfg.num_ranks,
        cfg.balance_render_load,
    )


def build_scene(cfg: RunConfig) -> Scene:
    """Partition phase: dataset + camera + per-rank subvolume plan."""
    key = _scene_key(cfg)
    found = _SCENE_MEMO.get(key)
    if found is not None:
        return found
    volume, transfer = make_dataset(cfg.dataset, cfg.volume_shape)
    camera = Camera(
        width=cfg.image_size,
        height=cfg.image_size,
        volume_shape=volume.shape,
        rot_x=cfg.rot_x,
        rot_y=cfg.rot_y,
        rot_z=cfg.rot_z,
        step=cfg.step,
    )
    weights = (
        render_load_weights(volume.data, transfer) if cfg.balance_render_load else None
    )
    if cfg.num_ranks & (cfg.num_ranks - 1) == 0:
        plan: PartitionPlan | FoldedPartition = recursive_bisect(
            volume.shape, cfg.num_ranks, weights=weights
        )
    else:
        # Paper §5 future work: any rank count via folding.
        plan = partition_folded(volume.shape, cfg.num_ranks)
    scene = Scene(volume, transfer, camera, plan)
    if len(_SCENE_MEMO) >= 8:
        _SCENE_MEMO.clear()
    _SCENE_MEMO[key] = scene
    return scene


# ---- render phase -----------------------------------------------------------
def _lookup_render_cache(
    cfg: RunConfig, rank: int, extent
) -> tuple[Optional[str], Optional[SubImage]]:
    """``(path, cached)`` for this rank's pristine render: ``path`` is
    ``None`` with the cache off, ``cached`` is ``None`` on a miss."""
    key = (
        _RENDER_CACHE_VERSION,
        "raycast",
        cfg.dataset,
        cfg.volume_shape,
        cfg.image_size,
        cfg.rot_x,
        cfg.rot_y,
        cfg.rot_z,
        cfg.step,
        cfg.num_ranks,
        cfg.balance_render_load,
        rank,
        (extent.x0, extent.y0, extent.z0, extent.x1, extent.y1, extent.z1),
    )
    path = entry_path("subimage", key)
    if path is None:
        return None, None
    arrays = load_entry(path)
    cached = None
    if arrays is not None:
        try:
            cached = SubImage(arrays["intensity"], arrays["opacity"])
        except (KeyError, ValueError, RenderError):
            pass  # a foreign or damaged entry is a miss
    perf.incr(
        "pipeline.render_cache_misses" if cached is None else "pipeline.render_cache_hits"
    )
    return path, cached


def render_task(cfg: RunConfig, extent) -> tuple[Rect, np.ndarray, np.ndarray, dict]:
    """The render phase's unit of work, run by a pool worker or inline.

    Casts ``extent`` of ``cfg``'s scene and returns the rays' bounding
    rect, the intensity and opacity planes cropped to it (every pixel
    outside is blank), and the ``perf`` report of the work — a worker's
    counters stay in the worker unless shipped.
    """
    scene = build_scene(cfg)
    camera = scene.camera
    with perf.scope() as work, perf.timer("pipeline.render"):
        setup = RaySetup(scene.volume, scene.transfer, camera, extent)
        intensity = np.zeros((camera.height, camera.width))
        opacity = np.zeros_like(intensity)
        setup.march_into(intensity, opacity)
    rows, cols = setup.rect.slices()
    return setup.rect, intensity[rows, cols].copy(), opacity[rows, cols].copy(), work.report()


class RankRender:
    """One rank's subimage on its way: a render-cache hit, or a
    :func:`render_task` issued to a :class:`RenderPool` (``None`` defers
    it inline).  The task's ``perf`` counts land in the registry that was
    current when it was issued, so a run accounts its renders wherever
    they ran."""

    __slots__ = ("_cached", "_pending", "_cache_path", "_registry", "_shape")

    def __init__(
        self, pool: Optional[RenderPool], cfg: RunConfig, rank: int, extent
    ):
        self._cache_path, self._cached = _lookup_render_cache(cfg, rank, extent)
        self._pending = None
        if self._cached is None:
            self._registry = perf.current()
            self._shape = (cfg.image_size, cfg.image_size)
            self._pending = (
                pool.submit(render_task, cfg, extent)
                if pool is not None
                else Pending(render_task, (cfg, extent))
            )

    def result(self) -> SubImage:
        if self._cached is not None:
            return self._cached
        rect, intensity, opacity, report = self._pending.result()
        self._registry.merge(report)
        image = SubImage.blank(*self._shape)
        rows, cols = rect.slices()
        image.intensity[rows, cols] = intensity
        image.opacity[rows, cols] = opacity
        if self._cache_path is not None:
            store_entry(self._cache_path, intensity=image.intensity, opacity=image.opacity)
        return image

    def cancel(self) -> None:
        if self._pending is not None:
            self._pending.cancel()


async def render_phase(
    ctx: BaseRankContext,
    cfg: RunConfig,
    scene: Scene,
    render: Optional[RankRender] = None,
) -> SubImage:
    """This rank's subimage (no communication, no model time): the
    ``render`` issued ahead of the run, or one rendered here."""
    if render is None:
        render = RankRender(None, cfg, ctx.rank, scene.plan.extent(ctx.rank))
    return render.result()


# ---- composite phase --------------------------------------------------------
def compositor_for(
    method: "str | Compositor", plan: "PartitionPlan | FoldedPartition", **options
) -> Compositor:
    """The compositor that runs ``method`` on ``plan``: a registry name
    is instantiated with ``options``, and a folded plan (any rank count,
    or the survivors of a rank loss) gets the folding wrapper."""
    compositor = make_compositor(method, **options) if isinstance(method, str) else method
    if isinstance(plan, FoldedPartition) and not isinstance(compositor, FoldedCompositor):
        compositor = FoldedCompositor(compositor)
    return compositor


async def composite_phase(
    ctx: BaseRankContext, cfg: RunConfig, image: SubImage, scene: Scene
) -> CompositeOutcome:
    """Run the configured compositing method on this rank."""
    compositor = compositor_for(cfg.method, scene.plan, **cfg.method_options)
    with perf.timer("pipeline.composite"):
        outcome = await compositor.run(ctx, image, scene.plan, scene.camera.view_dir)
    if outcome.producer is None:
        # Legacy methods predate the producer field; stamp for diagnostics.
        outcome.producer = compositor.name
    return outcome


# ---- fused render + composite ----------------------------------------------
def _fusable(cfg: RunConfig, scene: Scene) -> bool:
    """True when render and composite can run as one overlapped phase.

    Requires the tile-routed method (the only engine with a per-tile
    entry point; the ray caster is per-pixel independent, so clipped
    renders are bit-identical) and an unfolded plan (the folding
    wrapper drives ``run``, not ``run_fused``).
    """
    return cfg.method.lower().partition(":")[0] == TILE_ROUTED and not isinstance(
        scene.plan, FoldedPartition
    )


async def fused_render_composite_phase(
    ctx: BaseRankContext, cfg: RunConfig, scene: Scene
) -> tuple[SubImage, CompositeOutcome]:
    """Render tile row by tile row, pushing each tile into the router as
    its row finishes; returns ``(subimage, outcome)`` exactly like
    running :func:`render_phase` then :func:`composite_phase`
    (bit-identical — rays are per-pixel independent, and the tile
    engine's fold order does not depend on arrival order).

    The ray setup is built once per rank.  Tile ids are row-major, so
    the first request for a tile of a new row marches that whole row
    band (clipped to the rays' bounding rect) into the rank image, and
    the row's later tiles find their pixels already there.  A render
    cache hit fills bands from the cached subimage instead; a miss
    stores the assembled subimage under the split path's key.
    """
    compositor = make_compositor(cfg.method, **cfg.method_options)
    extent = scene.plan.extent(ctx.rank)
    camera = scene.camera
    cache_path, cached = _lookup_render_cache(cfg, ctx.rank, extent)
    if cached is None:
        with perf.timer("pipeline.render"):
            setup = RaySetup(scene.volume, scene.transfer, camera, extent)
        nonblank = setup.rect
    else:
        nonblank = cached.bounding_rect()
    band_rows = (0, 0)

    def render_tile(image: SubImage, rect: Rect) -> bool:
        nonlocal band_rows
        if (rect.y0, rect.y1) != band_rows:
            band_rows = (rect.y0, rect.y1)
            band = nonblank.intersect(Rect(rect.y0, 0, rect.y1, camera.width))
            if cached is None:
                with perf.timer("pipeline.render"):
                    setup.march_into(image.intensity, image.opacity, band)
            elif not band.is_empty:
                rows, cols = band.slices()
                image.intensity[rows, cols] = cached.intensity[rows, cols]
                image.opacity[rows, cols] = cached.opacity[rows, cols]
        return not rect.intersect(nonblank).is_empty

    with perf.timer("pipeline.composite"):
        subimage, outcome = await compositor.run_fused(
            ctx, camera.height, camera.width, scene.plan, camera.view_dir, render_tile
        )
    if cached is None and cache_path is not None:
        store_entry(cache_path, intensity=subimage.intensity, opacity=subimage.opacity)
    if outcome.producer is None:
        outcome.producer = compositor.name
    return subimage, outcome


# ---- gather phase -----------------------------------------------------------
async def gather_phase(
    ctx: BaseRankContext, tile: OwnedTile, height: int, width: int
) -> Optional[SubImage]:
    """Collect owned tiles to rank 0 over the substrate; rank 0 returns
    the assembled final image, everyone else ``None``."""
    ctx.begin_stage(GATHER_STAGE)
    payload = (
        tile.owned_rect,
        tile.owned_indices,
        tile.values_i.tobytes(),
        tile.values_a.tobytes(),
    )
    collected = await gather(ctx, payload, root=0)
    if ctx.rank != 0:
        return None
    assert collected is not None
    tiles = [
        OwnedTile(
            rect,
            indices,
            np.frombuffer(raw_i, dtype=np.float64),
            np.frombuffer(raw_a, dtype=np.float64),
        )
        for rect, indices, raw_i, raw_a in collected
    ]
    return assemble_tiles(tiles, height, width)


# ---- the full pipeline ------------------------------------------------------
async def pipeline_rank_program(
    ctx: BaseRankContext,
    cfg: RunConfig,
    fault_plan=None,
    recovery=None,
    progress=None,
    plan=None,
    renders=None,
):
    """One rank's full pipeline; module-level so every backend can ship it.

    Returns ``(subimage, outcome, final)`` where ``subimage`` is the
    pristine rendered image, ``outcome`` the compositing result, and
    ``final`` the assembled display image on rank 0 (``None`` elsewhere).

    ``fault_plan`` (a :class:`~repro.cluster.faults.FaultPlan`) installs
    this rank's seeded injector, sinking its event records into
    ``ctx.stats.events``; each phase boundary is a crash checkpoint
    (without an injector it only records the phase for failure reports).

    ``recovery`` (a :class:`~repro.cluster.recovery.RecoveryRuntime`)
    installs the stage checkpointer: the compositing engine snapshots
    into ``recovery.store`` after every exchange stage, and restores at
    ``recovery.resume`` before its stage loop (``None`` = fresh run).

    ``progress`` (a :class:`~repro.cluster.progress.ProgressFeed`,
    simulator only) installs the live partial-frame feed the engines
    emit into — copies only, no accounting impact.

    ``plan`` replaces the config's own partition: the survivor-side
    rerun after a rank loss passes the
    :class:`~repro.volume.folded.FoldedPartition` built by
    :func:`~repro.volume.folded.refold_survivors`, and bereaved cores
    re-render their merged blocks (distinct render-cache entries — the
    cache key carries the extent).

    ``renders`` (simulator only) holds every rank's :class:`RankRender`,
    issued before the engine started; ``None`` renders in the rank.
    """
    if progress is not None:
        ctx.install_progress(progress)
    if fault_plan is not None:
        ctx.install_fault_injector(
            fault_plan.injector_for(ctx.rank, sink=ctx.stats.events)
        )
    if recovery is not None and recovery.store is not None:
        from ..cluster.recovery import StageCheckpointer

        ctx.install_checkpointer(
            StageCheckpointer(
                recovery.store,
                ctx.rank,
                resume=recovery.resume,
                sink=ctx.stats.events,
            )
        )
    scene = build_scene(cfg)
    if plan is not None:
        scene = scene._replace(plan=plan)
    ctx.fault_checkpoint("render")
    if _fusable(cfg, scene):
        # One overlapped phase: tiles enter the router mid-render.  The
        # render checkpoint covers both (there is no boundary between
        # them any more); results are bit-identical to the split path.
        subimage, outcome = await fused_render_composite_phase(ctx, cfg, scene)
    else:
        render = None if renders is None else renders[ctx.rank]
        subimage = await render_phase(ctx, cfg, scene, render)
        ctx.fault_checkpoint("composite")
        outcome = await composite_phase(ctx, cfg, subimage.copy(), scene)
    ctx.fault_checkpoint("gather")
    final = await gather_phase(
        ctx, tile_from_outcome(outcome), scene.camera.height, scene.camera.width
    )
    return subimage, outcome, final
