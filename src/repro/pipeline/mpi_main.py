"""``mpiexec``-able entry point for the real-MPI deployment.

Thin wrapper: builds a :class:`~repro.pipeline.config.RunConfig` from
the command line and runs the *same*
:func:`~repro.pipeline.phases.pipeline_rank_program` every other backend
executes, via :class:`~repro.cluster.backend.MPIBackend` (SPMD — every
rank of the job calls it).  Rank 0 writes the final image and,
optionally, the unified run-timeline JSON.

    mpiexec -n 8 python -m repro.pipeline.mpi_main \
        --dataset engine_low --method bsbrc --image-size 384 --out out.pgm

Requires mpi4py (see :mod:`repro.cluster.mpi_backend`); the offline test
suite covers the identical pipeline through the multiprocessing backend.
"""

from __future__ import annotations

import argparse
import sys

from ..cluster.backend import MPIBackend
from ..cluster.mpi_backend import require_mpi
from ..compositing.registry import available_methods
from ..render.reference import luminance
from ..volume.datasets import DATASETS
from ..volume.io import to_gray8, write_pgm
from .config import RunConfig
from .phases import pipeline_rank_program

__all__ = ["main"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dataset", default="engine_low", choices=sorted(DATASETS))
    parser.add_argument("--method", default="bsbrc", choices=available_methods())
    parser.add_argument("--image-size", type=int, default=384)
    parser.add_argument("--rot-x", type=float, default=20.0)
    parser.add_argument("--rot-y", type=float, default=30.0)
    parser.add_argument("--out", default="mpi_composite.pgm")
    parser.add_argument("--trace-out", default=None,
                        help="write the unified run-timeline JSON here (rank 0)")
    args = parser.parse_args(argv)

    mpi = require_mpi()
    size = mpi.COMM_WORLD.Get_size()

    cfg = RunConfig(
        dataset=args.dataset,
        method=args.method,
        image_size=args.image_size,
        num_ranks=size,
        rot_x=args.rot_x,
        rot_y=args.rot_y,
        backend="mpi",
    )
    result = MPIBackend().run(size, pipeline_rank_program, (cfg,))

    if result.local_rank == 0:
        final = result.returns[0][2]
        write_pgm(args.out, to_gray8(luminance(final), gain=2.0))
        if args.trace_out:
            result.timeline(
                meta={"dataset": cfg.dataset, "method": cfg.method,
                      "num_ranks": size, "image_size": cfg.image_size}
            ).save(args.trace_out)
        print(f"[rank 0] {args.method} on {size} MPI ranks -> {args.out}")
    return 0


if __name__ == "__main__":  # pragma: no cover - needs an MPI launcher
    sys.exit(main())
