"""Experiment harness: render once, composite many ways.

Rendering dominates wall time, so the harness renders each workload
*once* at the finest partition (``max_ranks`` blocks, cropped to their
screen footprints) and assembles per-rank subimages for any smaller
power-of-two ``P`` by compositing the rank's blocks front-to-back.
Because every block is sampled on the camera's global ``t`` grid and
*over* is associative, the assembled subimage equals a direct render of
the rank's subvolume to float rounding (property-tested in
``tests/test_harness.py``).

Two cache levels back the render-once discipline:

* an **in-process** dict (``workload(...)``), as before, and
* an optional **on-disk** cache shared *across* processes: set the
  ``REPRO_CACHE_DIR`` environment variable (or pass ``cache_dir=``) and
  rendered block sets are stored as ``.npz`` keyed by a SHA-256 content
  hash of (cache version, renderer, dataset, image size, viewpoint,
  volume shape, step, max_ranks).  Repeat benchmark / CLI runs then skip
  the render phase entirely.  The cache is off by default, so tests
  never read stale pixels; bump ``_CACHE_VERSION`` when the renderer
  output changes intentionally.

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

import numpy as np

from .. import perf
from ..analysis.metrics import MethodMeasurement, measure
from ..cache import entry_path, load_entry, store_entry
from ..cluster.model import SP2, MachineModel
from ..cluster.hypercube import is_power_of_two, log2_int
from ..compositing.base import composite_rect_pixels
from ..errors import ConfigurationError
from ..pipeline.system import CompositingRun, run_compositing
from ..render.camera import Camera
from ..render.image import SubImage
from ..render.raycast import render_subvolume
from ..types import Rect
from ..volume.datasets import make_dataset
from ..volume.partition import PartitionPlan, recursive_bisect

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

#: Bump whenever the renderer's output or the cache layout changes.
_CACHE_VERSION = 1

Blocks = list[tuple[Rect, np.ndarray, np.ndarray]]


def _blocks_from_entry(arrays: dict[str, np.ndarray], max_ranks: int) -> Blocks | None:
    """Decode a cached block set; ``None`` when it is not one."""
    rects = arrays.get("rects")
    if rects is None or rects.shape != (max_ranks, 4):
        return None
    blocks: Blocks = []
    try:
        for n in range(max_ranks):
            rect = Rect(*(int(v) for v in rects[n]))
            if rect.is_empty:
                blocks.append((rect, np.empty((0, 0)), np.empty((0, 0))))
            else:
                blocks.append((rect, arrays[f"i{n}"], arrays[f"a{n}"]))
    except (KeyError, ValueError):
        return None
    return blocks


def _blocks_to_entry(blocks: Blocks) -> dict[str, np.ndarray]:
    arrays: dict[str, np.ndarray] = {
        "rects": np.asarray(
            [[r.y0, r.x0, r.y1, r.x1] for r, _, _ in blocks], dtype=np.int64
        )
    }
    for n, (rect, block_i, block_a) in enumerate(blocks):
        if not rect.is_empty:
            arrays[f"i{n}"] = block_i
            arrays[f"a{n}"] = block_a
    return arrays


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
    #: On-disk cache directory; ``None`` reads ``REPRO_CACHE_DIR``.
    cache_dir: str | None = None

    camera: Camera = field(init=False)
    plan_max: PartitionPlan = field(init=False)
    blocks: Blocks = field(init=False)
    _subimage_cache: dict[int, list[SubImage]] = field(init=False, default_factory=dict)
    _plan_cache: dict[int, PartitionPlan] = field(init=False, default_factory=dict)

    def __post_init__(self) -> None:
        if not is_power_of_two(self.max_ranks):
            raise ConfigurationError(f"max_ranks must be a power of two, got {self.max_ranks}")
        volume, transfer = make_dataset(self.dataset, self.volume_shape)
        self.camera = Camera(
            width=self.image_size,
            height=self.image_size,
            volume_shape=volume.shape,
            rot_x=self.rotation[0],
            rot_y=self.rotation[1],
            rot_z=self.rotation[2],
            step=self.step,
        )
        self.plan_max = recursive_bisect(volume.shape, self.max_ranks)

        key = (
            _CACHE_VERSION,
            "raycast",
            self.dataset,
            self.image_size,
            self.max_ranks,
            tuple(self.rotation),
            tuple(volume.shape),
            self.step,
        )
        cache_path = entry_path("workload", key, root=self.cache_dir)
        if cache_path is not None:
            arrays = load_entry(cache_path)
            cached = _blocks_from_entry(arrays, self.max_ranks) if arrays else None
            if cached is not None:
                perf.incr("harness.disk_cache_hits")
                self.blocks = cached
                self._plan_cache[self.max_ranks] = self.plan_max
                return
            perf.incr("harness.disk_cache_misses")

        self.blocks = []
        with perf.timer("harness.render_blocks"):
            for block in range(self.max_ranks):
                img = render_subvolume(
                    volume, transfer, self.camera, self.plan_max.extent(block)
                )
                rect = img.bounding_rect()
                if rect.is_empty:
                    self.blocks.append((rect, np.empty((0, 0)), np.empty((0, 0))))
                else:
                    rows, cols = rect.slices()
                    self.blocks.append(
                        (rect, img.intensity[rows, cols].copy(), img.opacity[rows, cols].copy())
                    )
        if cache_path is not None:
            store_entry(cache_path, **_blocks_to_entry(self.blocks))
            perf.incr("harness.disk_cache_stores")
        self._plan_cache[self.max_ranks] = self.plan_max

    # ---- per-P assembly ------------------------------------------------------
    def plan_for(self, num_ranks: int) -> PartitionPlan:
        """Bisection plan for ``num_ranks`` (a prefix of the finest tree)."""
        plan = self._plan_cache.get(num_ranks)
        if plan is None:
            volume, _ = make_dataset(self.dataset, self.volume_shape)
            plan = recursive_bisect(volume.shape, num_ranks)
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
    cache_dir: str | None = None,
) -> RenderedWorkload:
    """Fetch (rendering if needed) a cached :class:`RenderedWorkload`.

    ``cache_dir`` opts into the cross-process on-disk cache explicitly;
    by default the ``REPRO_CACHE_DIR`` environment variable governs it.
    """
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
            cache_dir=cache_dir,
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
