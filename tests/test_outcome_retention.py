"""A rank's outcome holds only what it owns.

After a compositing run the outcomes are the only thing that outlives
it, and they carry the owned pieces: about one frame of pixels across
all ranks (16 bytes per owned pixel), not one whole frame per rank.
``tracemalloc`` counts the bytes the outcomes keep alive, numpy's
buffers included.
"""

import gc
import tracemalloc

import pytest

from conftest import rendered_workload
from repro.cluster.model import SP2
from repro.pipeline.system import run_compositing

#: Python objects around the pieces (tuples, parts, array headers): a
#: few hundred bytes per rank, well under this.
ALLOWANCE = 64 * 1024


@pytest.mark.parametrize("method", ["bs", "bslc", "bsbrc", "tile-routed:rect-rle"])
def test_outcomes_retain_about_the_owned_pixels(method):
    subimages, plan, camera = rendered_workload("engine_low", 16, image_size=96)
    owned_bytes = subimages[0].num_pixels * 16  # the ranks partition the frame
    gc.collect()
    tracemalloc.start()
    try:
        run = run_compositing(list(subimages), method, plan, camera.view_dir, SP2)
        outcomes = run.outcomes
        del run
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        del outcomes
        gc.collect()
        retained = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained <= 1.25 * owned_bytes + ALLOWANCE, (retained, owned_bytes)
