#!/usr/bin/env python
"""Viewpoint rotation study (paper §3.2) with rendered turntable frames.

As the camera rotates, the screen footprints of the per-processor
subvolumes shift: with an axis-aligned view many receiving bounding
rectangles are empty (BSBR skips them for 8 bytes each); rotating about
one or two axes fills them in.  This example sweeps a turntable,
reports the BSBR empty-rectangle counts and per-method compositing
times at each angle, and writes a PGM frame per step.

Usage:
    python examples/viewpoint_rotation.py [--frames 6] [--full] [--outdir frames]
"""

import argparse
import os
import sys

from repro.analysis.tables import format_generic
from repro.cluster.hypercube import log2_int
from repro.experiments.harness import run_method, workload
from repro.render.reference import luminance
from repro.volume.io import to_gray8, write_pgm
from repro.volume.partition import depth_order
from repro.render.reference import composite_sequential


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--frames", type=int, default=6)
    parser.add_argument("--full", action="store_true")
    parser.add_argument("--outdir", default="frames")
    parser.add_argument("--dataset", default="engine_low")
    args = parser.parse_args(argv)

    if args.full:
        image_size, volume_shape, num_ranks = 384, None, 64
    else:
        image_size, volume_shape, num_ranks = 96, (64, 64, 28), 8
    stages = log2_int(num_ranks)

    os.makedirs(args.outdir, exist_ok=True)
    table_rows = []
    for frame in range(args.frames):
        angle = 360.0 * frame / args.frames
        work = workload(
            args.dataset,
            image_size,
            max_ranks=num_ranks,
            rotation=(15.0, angle, 0.0),
            volume_shape=volume_shape,
        )

        # Compositing behaviour at this viewpoint.
        row_bsbr, run_bsbr = run_method(work, "bsbr", num_ranks)
        row_bsbrc, _ = run_method(work, "bsbrc", num_ranks)
        empties = sum(
            rs.counter_total("empty_recv_rect") for rs in run_bsbr.stats.rank_stats
        )
        table_rows.append(
            (
                f"{angle:6.1f}",
                f"{empties}/{num_ranks * stages}",
                f"{row_bsbr.t_total * 1e3:8.2f}",
                f"{row_bsbrc.t_total * 1e3:8.2f}",
                row_bsbr.mmax_bytes,
            )
        )

        # Write the turntable frame.
        subimages = work.subimages_for(num_ranks)
        order = depth_order(work.plan_for(num_ranks), work.camera.view_dir)
        image = composite_sequential(subimages, order)
        path = os.path.join(args.outdir, f"frame_{frame:03d}.pgm")
        write_pgm(path, to_gray8(luminance(image), gain=2.0))

    print(f"Turntable of {args.dataset}, {num_ranks} simulated PEs:\n")
    print(
        format_generic(
            ["angle", "empty recv rects", "BSBR ms", "BSBRC ms", "BSBR M_max"],
            table_rows,
        )
    )
    print(
        f"\n{args.frames} frames written to {args.outdir}/ — note how the"
        "\nempty-rectangle count (BSBR's shortcut) varies with the viewpoint,"
        "\nexactly the effect analysed in the paper's Section 3.2."
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
