"""At-scale crossover study: the paper's method ranking beyond P=64.

The paper's crossover analysis (BS vs BSBR vs BSLC vs BSBRC as sparsity
varies) stopped at the SP2's 64 processors.  The event-driven simulator
core removes that ceiling, but ray-casting 1024 subvolumes is wall-clock
prohibitive — and unnecessary: the methods differentiate on the *shape*
of the pixel workload (how sparse each rank's subimage is), not on the
renderer that produced it.  This module therefore drives the real
compositing stack with **synthetic sparse subimages**: each rank owns a
deterministic rectangle covering a chosen fill fraction of the screen,
so sparsity is a controlled variable and the same workload is
reproducible bit-for-bit on any machine.

:func:`run_scale_crossover` replays the study at P∈{64, 256, 1024} x
fill∈{5%, 20%, 60%} and reports the modelled method ranking per cell;
``python -m repro.experiments scale`` archives it under ``results/``.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from ..analysis.metrics import MethodMeasurement, measure
from ..cluster.model import SP2, MachineModel
from ..pipeline.system import run_compositing
from ..render.image import SubImage
from ..volume.partition import recursive_bisect

__all__ = [
    "synthetic_subimages",
    "run_scale_crossover",
    "format_scale",
    "DEFAULT_RANKS",
    "DEFAULT_FILLS",
    "DEFAULT_METHODS",
]

#: The paper's P=64 point plus the two at-scale extensions.
DEFAULT_RANKS = (64, 256, 1024)

#: Fill fractions spanning sparse -> dense (the crossover axis).
DEFAULT_FILLS = (0.05, 0.2, 0.6)

#: The four paper methods, in the paper's order.
DEFAULT_METHODS = ("bs", "bsbr", "bslc", "bsbrc")

#: Fixed oblique viewpoint (only the depth order matters here).
VIEW_DIR = np.array([0.40824829, 0.40824829, 0.81649658])

#: Volume shape handed to the bisection planner: 2^18 cells, so any
#: power-of-two P up to 262144 gets a valid plan.
_PLAN_SHAPE = (64, 64, 64)


def synthetic_subimages(
    num_ranks: int, image_size: int, fill: float, *, seed: int = 0
) -> list[SubImage]:
    """Deterministic sparse subimages: one filled rectangle per rank.

    Each rank's rectangle covers ``fill`` of the screen area, scattered
    by a fixed integer hash so footprints overlap the way projected
    subvolumes do.  Pure arithmetic — no RNG state, no renderer — so the
    workload is bit-identical across runs, machines and processes.
    """
    if not (0.0 < fill <= 1.0):
        raise ValueError(f"fill must be in (0, 1], got {fill}")
    side = max(1, int(round(image_size * math.sqrt(fill))))
    side = min(side, image_size)
    span = max(1, image_size - side + 1)
    images: list[SubImage] = []
    for rank in range(num_ranks):
        img = SubImage.blank(image_size, image_size)
        h = (rank * 2654435761 + seed * 40503 + 12345) & 0xFFFFFFFF
        y0 = (h >> 16) % span
        x0 = h % span
        intensity = 0.2 + 0.6 * (((h >> 8) & 0xFF) / 255.0)
        opacity = 0.25 + 0.5 * ((h & 0xFF) / 255.0)
        img.intensity[y0 : y0 + side, x0 : x0 + side] = intensity
        img.opacity[y0 : y0 + side, x0 : x0 + side] = opacity
        images.append(img)
    return images


def run_scale_crossover(
    rank_counts: Sequence[int] = DEFAULT_RANKS,
    fills: Sequence[float] = DEFAULT_FILLS,
    methods: Sequence[str] = DEFAULT_METHODS,
    *,
    image_size: int = 96,
    machine: MachineModel = SP2,
    network=None,
    verbose: bool = False,
) -> list[MethodMeasurement]:
    """The (P x fill x method) crossover grid on the modelled machine.

    Returns one :class:`MethodMeasurement` per cell; the ``dataset``
    field encodes the fill fraction (``"synthetic-fill0.05"``) so the
    standard row persistence applies unchanged.
    """
    rows: list[MethodMeasurement] = []
    for num_ranks in rank_counts:
        plan = recursive_bisect(_PLAN_SHAPE, num_ranks)
        for fill in fills:
            images = synthetic_subimages(num_ranks, image_size, fill)
            dataset = f"synthetic-fill{fill:g}"
            for method in methods:
                run = run_compositing(
                    images, method, plan, VIEW_DIR, machine,
                    network=network,
                )
                row = measure(
                    run.stats,
                    method=method,
                    dataset=dataset,
                    image_size=image_size,
                )
                rows.append(row)
                if verbose:
                    print(
                        f"  P={num_ranks:<5d} fill={fill:<5g} {method:6s} "
                        f"T_total={row.t_total * 1e3:9.3f} ms  "
                        f"M_max={row.mmax_bytes}"
                    )
            del images
    return rows


def format_scale(rows: Sequence[MethodMeasurement]) -> str:
    """Human-readable crossover table: per (P, fill) method ranking."""
    cells: dict[tuple[int, str], list[MethodMeasurement]] = {}
    for row in rows:
        cells.setdefault((row.num_ranks, row.dataset), []).append(row)
    lines = [
        "At-scale crossover study (synthetic sparse workloads, modelled time)",
        "",
        f"{'P':>6} {'fill':>8} | "
        + " | ".join(f"{'rank ' + str(i + 1):>14}" for i in range(4)),
        "-" * 78,
    ]
    for (num_ranks, dataset), cell in sorted(cells.items()):
        fill = dataset.replace("synthetic-fill", "")
        ranked = sorted(cell, key=lambda r: (r.t_total, r.method))
        entries = " | ".join(
            f"{r.method:>6} {r.t_total * 1e3:7.2f}" for r in ranked
        )
        lines.append(f"{num_ranks:>6} {fill:>8} | {entries}")
    lines += [
        "",
        "Each cell ranks the paper's four methods by modelled",
        "T_comp + T_comm (milliseconds shown after each method name).",
    ]
    return "\n".join(lines)
