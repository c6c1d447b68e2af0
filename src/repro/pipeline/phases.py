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
* **render** (:class:`RankRender`) — embarrassingly parallel, no
  communication: one :func:`render_task` per rank (the batched ray
  marcher, in the simulator's render pool or inline in the rank), or a
  hit in the optional ``REPRO_CACHE_DIR`` on-disk per-rank subimage
  cache.  No model time is charged: the paper measures compositing only.
* **composite** (:func:`composite_phase`) — the measured phase; runs the
  configured method (folding-wrapped on non-power-of-two plans) on the
  rendered subimage.  Every method, tile-routed included, takes this
  one path on every backend and plan.
* **gather** (:func:`gather_phase`) — owned pieces flow to rank 0 over
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
from ..compositing.registry import make_compositor
from ..render.camera import Camera
from ..render.image import SubImage
from ..render.raycast import RaySetup
from ..types import Rect
from ..volume.datasets import make_dataset
from ..volume.folded import FoldedPartition, partition_folded
from ..volume.partition import PartitionPlan, recursive_bisect, render_load_weights
from .assemble import gather_payload, payload_piece, scatter_tile
from .config import RunConfig
from .render_pool import Pending, RenderPool

__all__ = [
    "GATHER_STAGE",
    "Scene",
    "build_scene",
    "render_task",
    "RankRender",
    "composite_phase",
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
#: v3: an entry holds the rays' bounding rect and the planes cropped to it.
_RENDER_CACHE_VERSION = 3


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
#: A render as :func:`render_task` returns it: the rays' bounding rect
#: and the intensity and opacity planes cropped to it.
Planes = tuple[Rect, np.ndarray, np.ndarray]


def _lookup_render_cache(
    cfg: RunConfig, rank: int, extent
) -> tuple[Optional[str], Optional[Planes]]:
    """``(path, planes)`` for this rank's pristine render: ``path`` is
    ``None`` with the cache off, ``planes`` is ``None`` on a miss."""
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
    planes = None
    if arrays is not None:
        try:
            rect = Rect(*(int(v) for v in arrays["rect"]))
            intensity, opacity = arrays["intensity"], arrays["opacity"]
            if intensity.shape == opacity.shape == (rect.height, rect.width):
                planes = (rect, intensity, opacity)
        except (KeyError, TypeError, ValueError):
            pass  # a foreign or damaged entry is a miss
    perf.incr(
        "pipeline.render_cache_misses" if planes is None else "pipeline.render_cache_hits"
    )
    return path, planes


def _store_render(path: str, rect: Rect, intensity: np.ndarray, opacity: np.ndarray) -> None:
    rect_array = np.array([rect.y0, rect.x0, rect.y1, rect.x1])
    store_entry(path, rect=rect_array, intensity=intensity, opacity=opacity)


def render_task(cfg: RunConfig, extent) -> tuple[Rect, np.ndarray, np.ndarray, dict]:
    """The render phase's unit of work, run by a pool worker or inline.

    Casts ``extent`` of ``cfg``'s scene and returns the rays' bounding
    rect, the intensity and opacity planes cropped to it (every pixel
    outside is blank), and the ``perf`` report of the work — a worker's
    counters stay in the worker unless shipped.
    """
    scene = build_scene(cfg)
    with perf.scope() as work, perf.timer("pipeline.render"):
        setup = RaySetup(scene.volume, scene.transfer, scene.camera, extent)
        intensity, opacity = setup.march()
    return setup.rect, intensity, opacity, work.report()


class RankRender:
    """One rank's render on its way: a render-cache hit, or a
    :func:`render_task` issued to a :class:`RenderPool` (``None`` defers
    it inline).  :meth:`planes` is the render as the task returns it,
    :meth:`result` the full-frame subimage.  The task's ``perf`` counts
    land in the registry that was current when it was issued, so a run
    accounts its renders wherever they ran; a miss is stored in the
    render cache once, when its planes arrive."""

    __slots__ = ("_planes", "_pending", "_cache_path", "_registry", "_shape")

    def __init__(
        self, pool: Optional[RenderPool], cfg: RunConfig, rank: int, extent
    ):
        self._shape = (cfg.image_size, cfg.image_size)
        self._cache_path, self._planes = _lookup_render_cache(cfg, rank, extent)
        self._pending = None
        if self._planes is None:
            self._registry = perf.current()
            self._pending = (
                pool.submit(render_task, cfg, extent)
                if pool is not None
                else Pending(render_task, (cfg, extent))
            )

    def planes(self) -> Planes:
        if self._planes is None:
            rect, intensity, opacity, report = self._pending.result()
            self._registry.merge(report)
            if self._cache_path is not None:
                _store_render(self._cache_path, rect, intensity, opacity)
            self._planes = (rect, intensity, opacity)
        return self._planes

    def result(self) -> SubImage:
        rect, intensity, opacity = self.planes()
        image = SubImage.blank(*self._shape)
        rows, cols = rect.slices()
        image.intensity[rows, cols] = intensity
        image.opacity[rows, cols] = opacity
        return image

    def cancel(self) -> None:
        if self._pending is not None:
            self._pending.cancel()


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
        return await compositor.run(ctx, image, scene.plan, scene.camera.view_dir)


# ---- gather phase -----------------------------------------------------------
async def gather_phase(
    ctx: BaseRankContext, outcome: CompositeOutcome, height: int, width: int
) -> Optional[SubImage]:
    """Collect owned pieces to rank 0 over the substrate; rank 0 returns
    the assembled final image, everyone else ``None``."""
    ctx.begin_stage(GATHER_STAGE)
    collected = await gather(ctx, gather_payload(outcome, width), root=0)
    if ctx.rank != 0:
        return None
    assert collected is not None
    final = SubImage.blank(height, width)
    for payload in collected:
        scatter_tile(final, *payload_piece(payload))
    return final


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
    if renders is None:
        render = RankRender(None, cfg, ctx.rank, scene.plan.extent(ctx.rank))
    else:
        render = renders[ctx.rank]
    subimage = render.result()
    ctx.fault_checkpoint("composite")
    outcome = await composite_phase(ctx, cfg, subimage, scene)
    ctx.fault_checkpoint("gather")
    final = await gather_phase(ctx, outcome, scene.camera.height, scene.camera.width)
    return subimage, outcome, final
