"""Experiment harness: render once, composite many ways.

Rendering dominates wall time, so the harness renders each workload
*once* at the finest partition — ``max_ranks`` blocks through the
pipeline's render path (:class:`~repro.pipeline.phases.RankRender`: the
warm render pool and the ``REPRO_CACHE_DIR`` per-rank cache), each
cropped to its rays' screen rect — and assembles per-rank subimages for
any smaller power-of-two ``P`` by compositing the rank's blocks
front-to-back.
Because every block is sampled on the camera's global ``t`` grid and
*over* is associative, the assembled subimage equals a direct render of
the rank's subvolume to float rounding (property-tested in
``tests/test_harness.py``).

Results are plain :class:`~repro.analysis.metrics.MethodMeasurement`
rows with JSON persistence so EXPERIMENTS.md can be regenerated without
re-running.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .. import perf
from ..analysis.metrics import MethodMeasurement, measure
from ..cluster.model import SP2, MachineModel
from ..cluster.hypercube import is_power_of_two, log2_int
from ..compositing.base import composite_rect_pixels
from ..errors import ConfigurationError
from ..pipeline.config import RunConfig
from ..pipeline.phases import Planes, RankRender, build_scene
from ..pipeline.render_pool import shared_pool
from ..pipeline.system import CompositingRun, run_compositing
from ..render.camera import Camera
from ..render.image import SubImage
from ..volume.partition import PartitionPlan

__all__ = [
    "RenderedWorkload",
    "workload",
    "clear_workload_cache",
    "run_method",
    "run_grid",
    "rows_to_json",
    "rows_from_json",
    "save_rows",
    "load_rows",
]

#: Default viewpoint used by the tables (a generic two-axis rotation so
#: subimage footprints overlap, as in the paper's experiments).
DEFAULT_ROTATION = (20.0, 30.0, 0.0)


@dataclass
class RenderedWorkload:
    """One (dataset, image size, viewpoint) workload rendered at the
    finest partition, ready to be assembled for any smaller ``P``."""

    dataset: str
    image_size: int
    max_ranks: int
    rotation: tuple[float, float, float] = DEFAULT_ROTATION
    volume_shape: tuple[int, int, int] | None = None
    step: float = 1.0

    config: RunConfig = field(init=False)
    camera: Camera = field(init=False)
    plan_max: PartitionPlan = field(init=False)
    blocks: list[Planes] = field(init=False)
    _subimage_cache: dict[int, list[SubImage]] = field(init=False, default_factory=dict)
    _plan_cache: dict[int, PartitionPlan] = field(init=False, default_factory=dict)

    def __post_init__(self) -> None:
        if not is_power_of_two(self.max_ranks):
            raise ConfigurationError(f"max_ranks must be a power of two, got {self.max_ranks}")
        rot_x, rot_y, rot_z = self.rotation
        self.config = RunConfig(
            dataset=self.dataset,
            image_size=self.image_size,
            num_ranks=self.max_ranks,
            rot_x=rot_x,
            rot_y=rot_y,
            rot_z=rot_z,
            volume_shape=self.volume_shape,
            step=self.step,
        )
        scene = build_scene(self.config)
        self.camera = scene.camera
        self.plan_max = scene.plan
        self._plan_cache[self.max_ranks] = self.plan_max
        # Issue every block before collecting any, so the pool renders
        # them all at once; a render-cache hit never reaches the pool.
        pool = shared_pool()
        renders = [
            RankRender(pool, self.config, block, self.plan_max.extent(block))
            for block in range(self.max_ranks)
        ]
        self.blocks = [render.planes() for render in renders]

    # ---- per-P assembly ------------------------------------------------------
    def plan_for(self, num_ranks: int) -> PartitionPlan:
        """Bisection plan for ``num_ranks`` (a prefix of the finest tree)."""
        plan = self._plan_cache.get(num_ranks)
        if plan is None:
            plan = build_scene(self.config.with_(num_ranks=num_ranks)).plan
            self._plan_cache[num_ranks] = plan
        return plan

    def subimages_for(self, num_ranks: int) -> list[SubImage]:
        """Per-rank rendered subimages for ``num_ranks <= max_ranks``."""
        cached = self._subimage_cache.get(num_ranks)
        if cached is not None:
            return cached
        if not is_power_of_two(num_ranks) or num_ranks > self.max_ranks:
            raise ConfigurationError(
                f"num_ranks must be a power of two <= {self.max_ranks}, got {num_ranks}"
            )
        shift = log2_int(self.max_ranks) - log2_int(num_ranks)
        groups: dict[int, list[int]] = defaultdict(list)
        for block in range(self.max_ranks):
            groups[block >> shift].append(block)

        view_dir = self.camera.view_dir
        images: list[SubImage] = []
        for rank in range(num_ranks):
            members = groups[rank]
            # Front-to-back order of this rank's blocks along the view.
            members.sort(
                key=lambda m: (float(self.plan_max.extent(m).center @ view_dir), m)
            )
            acc = SubImage.blank(self.image_size, self.image_size)
            for member in reversed(members):  # fold back-to-front
                rect, block_i, block_a = self.blocks[member]
                if rect.is_empty:
                    continue
                composite_rect_pixels(acc, rect, block_i, block_a, local_in_front=False)
            images.append(acc)
        if num_ranks <= 8 or self.image_size <= 256:
            self._subimage_cache[num_ranks] = images
        return images


# Module-level workload cache (workloads are expensive to render).
_WORKLOADS: dict[tuple, RenderedWorkload] = {}


def workload(
    dataset: str,
    image_size: int,
    *,
    max_ranks: int = 64,
    rotation: tuple[float, float, float] = DEFAULT_ROTATION,
    volume_shape: tuple[int, int, int] | None = None,
    step: float = 1.0,
) -> RenderedWorkload:
    """Fetch (rendering if needed) a cached :class:`RenderedWorkload`."""
    key = (dataset, image_size, max_ranks, tuple(rotation), volume_shape, step)
    found = _WORKLOADS.get(key)
    if found is None:
        found = RenderedWorkload(
            dataset=dataset,
            image_size=image_size,
            max_ranks=max_ranks,
            rotation=tuple(rotation),  # type: ignore[arg-type]
            volume_shape=volume_shape,
            step=step,
        )
        _WORKLOADS[key] = found
    else:
        perf.incr("harness.memory_cache_hits")
    return found


def clear_workload_cache() -> None:
    """Drop all cached renders (frees memory between experiment suites)."""
    _WORKLOADS.clear()


def run_method(
    work: RenderedWorkload,
    method: str,
    num_ranks: int,
    *,
    machine: MachineModel = SP2,
    network=None,
    **method_options,
) -> tuple[MethodMeasurement, CompositingRun]:
    """Composite one workload with one method at one processor count.

    ``network`` (a :class:`~repro.cluster.model.Network` or ``None`` for
    the flat link) selects the simulator's topology; see
    :func:`repro.pipeline.system.run_compositing`.
    """
    images = work.subimages_for(num_ranks)
    plan = work.plan_for(num_ranks)
    run = run_compositing(
        images, method, plan, work.camera.view_dir, machine,
        network=network, **method_options,
    )
    row = measure(
        run.stats,
        method=run.compositor.name,
        dataset=work.dataset,
        image_size=work.image_size,
    )
    return row, run


def run_grid(
    datasets: Sequence[str],
    image_size: int,
    rank_counts: Sequence[int],
    methods: Sequence[str],
    *,
    machine: MachineModel = SP2,
    rotation: tuple[float, float, float] = DEFAULT_ROTATION,
    volume_shape: tuple[int, int, int] | None = None,
    max_ranks: int | None = None,
    step: float = 1.0,
    verbose: bool = False,
    method_options: Mapping[str, Mapping] | None = None,
    network=None,
) -> list[MethodMeasurement]:
    """Run the full (dataset x P x method) grid — the Tables 1/2 engine.

    ``method_options`` maps a method name to extra factory keywords for
    that method's runs (e.g. ``{"radix-k:rect-rle": {"radix": (4, 4)}}``),
    so schedule ablations sweep through the same grid.  ``network``
    applies the same topology to every cell.
    """
    top = max_ranks if max_ranks is not None else max(rank_counts)
    per_method = dict(method_options or {})
    rows: list[MethodMeasurement] = []
    for dataset in datasets:
        work = workload(
            dataset,
            image_size,
            max_ranks=top,
            rotation=rotation,
            volume_shape=volume_shape,
            step=step,
        )
        for num_ranks in rank_counts:
            for method in methods:
                row, _ = run_method(
                    work, method, num_ranks, machine=machine,
                    network=network, **per_method.get(method, {}),
                )
                rows.append(row)
                if verbose:
                    print(
                        f"  {dataset:12s} P={row.num_ranks:<3d} {row.method:6s} "
                        f"T_total={row.t_total * 1e3:9.2f} ms  M_max={row.mmax_bytes}"
                    )
    return rows


# ---- persistence --------------------------------------------------------------
def rows_to_json(rows: Iterable[MethodMeasurement]) -> str:
    return json.dumps([row.as_dict() for row in rows], indent=2)


def rows_from_json(text: str) -> list[MethodMeasurement]:
    return [MethodMeasurement.from_dict(item) for item in json.loads(text)]


def save_rows(rows: Iterable[MethodMeasurement], path: str | os.PathLike) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(rows_to_json(rows))


def load_rows(path: str | os.PathLike) -> list[MethodMeasurement]:
    with open(path, "r", encoding="utf-8") as fh:
        return rows_from_json(fh.read())
