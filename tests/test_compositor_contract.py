"""The compositor contract: a compositor reads its input, never writes it.

Every case calls :meth:`Compositor.run` directly, on the simulator, with
input planes frozen by ``setflags(write=False)``: a method that folded
into the caller's planes raises at its first write.  The outcome must
still assemble to the sequential reference, and no owned piece may share
memory with an input.

The gather pins hold the final gather's accounted bytes per rank and the
modelled makespan for a method of each ownership shape (rect, index
part, one tile per owner, several tiles per owner): the gather ships its
payload exactly as before outcomes became pieces.
"""

import numpy as np
import pytest

from conftest import reference_image, rendered_workload
from repro.cluster.model import SP2
from repro.cluster.recovery import MemoryCheckpointStore, StageCheckpointer
from repro.cluster.simulator import Simulator
from repro.compositing.folding import FoldedCompositor
from repro.compositing.registry import make_compositor
from repro.pipeline.config import RunConfig
from repro.pipeline.system import GATHER_STAGE, SortLastSystem, assemble_final
from repro.render.image import SubImage
from repro.render.raycast import render_subvolume
from repro.render.camera import Camera
from repro.render.reference import composite_sequential
from repro.volume.datasets import make_dataset
from repro.volume.folded import folded_depth_order, partition_folded

METHODS = (
    "bs",
    "bsbr",
    "bslc",
    "bsbrc",
    "radix-k:rect-rle",
    "direct-send:rle",
    "tile-routed:rect-rle",
)


def _frozen(images) -> list[SubImage]:
    """Copies of ``images`` whose planes refuse every write."""
    frozen = []
    for image in images:
        copy = image.copy()
        copy.intensity.setflags(write=False)
        copy.opacity.setflags(write=False)
        frozen.append(copy)
    return frozen


def _run(compositor, images, plan, view_dir, install=None):
    """Each rank's outcome of ``compositor.run`` on ``images[rank]``."""
    outcomes = [None] * len(images)

    async def program(ctx):
        if install is not None:
            install(ctx)
        outcomes[ctx.rank] = await compositor.run(ctx, images[ctx.rank], plan, view_dir)

    Simulator(len(images), SP2).run(program)
    return outcomes


def _assert_detached(outcomes, images):
    for outcome in outcomes:
        for piece in outcome:
            for plane in (piece.intensity, piece.opacity):
                assert not any(
                    np.shares_memory(plane, image.intensity)
                    or np.shares_memory(plane, image.opacity)
                    for image in images
                )


class TestNeverWritesItsInput:
    @pytest.mark.parametrize("num_ranks", [4, 8])
    @pytest.mark.parametrize("method", METHODS)
    def test_read_only_input(self, method, num_ranks):
        subimages, plan, camera = rendered_workload("engine_low", num_ranks)
        images = _frozen(subimages)
        outcomes = _run(make_compositor(method), images, plan, camera.view_dir)
        final = assemble_final(outcomes, *images[0].shape)
        assert final.max_abs_diff(reference_image("engine_low", num_ranks)) < 1e-9
        _assert_detached(outcomes, images)

    def test_folded_read_only_input(self):
        volume, transfer = make_dataset("engine_low", (32, 32, 16))
        camera = Camera(
            width=48, height=48, volume_shape=volume.shape, rot_x=25, rot_y=40
        )
        folded = partition_folded(volume.shape, 6)
        rendered = [
            render_subvolume(volume, transfer, camera, folded.extent(r))
            for r in range(6)
        ]
        images = _frozen(rendered)
        compositor = FoldedCompositor(make_compositor("bsbrc"))
        outcomes = _run(compositor, images, folded, camera.view_dir)
        reference = composite_sequential(
            rendered, folded_depth_order(folded, camera.view_dir)
        )
        assert assemble_final(outcomes, 48, 48).max_abs_diff(reference) < 1e-9
        _assert_detached(outcomes, images)

    def test_checkpoint_resume_rerun_read_only_input(self):
        """A rerun restores the resume stage's keep part into working
        planes of its own and ends bit-identical to a clean run."""
        subimages, plan, camera = rendered_workload("engine_low", 8)
        compositor = make_compositor("bsbrc")
        store = MemoryCheckpointStore()

        def checkpointer(resume):
            def install(ctx):
                ctx.install_checkpointer(
                    StageCheckpointer(store, ctx.rank, resume=resume)
                )
            return install

        clean = _run(compositor, _frozen(subimages), plan, camera.view_dir,
                     checkpointer(None))
        assert store.common_stage(8) == 2
        images = _frozen(subimages)
        resumed = _run(compositor, images, plan, camera.view_dir, checkpointer(1))
        for ours, theirs in zip(resumed, clean):
            (a,), (b,) = ours, theirs
            assert a.part.rect == b.part.rect
            assert a.intensity.tobytes() == b.intensity.tobytes()
            assert a.opacity.tobytes() == b.opacity.tobytes()
        _assert_detached(resumed, images)


#: Recorded before outcomes became pieces (the owned part of a full-frame
#: buffer plus a rect or an index array): engine_low, 24x24x12 volume,
#: 64 px, P=8 on the simulator.  Per rank: the gather stage's accounted
#: bytes sent; then the full run's modelled makespan.
GATHER_PINS = {
    ("bs", None): (
        [0, 8259, 8259, 8259, 8259, 8259, 8259, 8259], 0.017772268999999993
    ),
    ("bslc", None): (
        [0, 12432, 12432, 12432, 12432, 12432, 12432, 12432], 0.0068082199999999985
    ),
    ("bsbrc", None): (
        [0, 8259, 8259, 8259, 8259, 8259, 8259, 8259], 0.005728998999999999
    ),
    # Four 32 px tiles: ranks 0-3 own one each, ranks 4-7 none.
    ("tile-routed:rect-rle", None): (
        [0, 24720, 24720, 24720, 136, 136, 136, 136], 0.004989516000000002
    ),
    # Sixteen 16 px tiles: two per rank.
    ("tile-routed:rect-rle", 16): (
        [0, 12432, 12432, 12432, 12432, 12432, 12432, 12432], 0.00491341
    ),
}


class TestGatherPins:
    @pytest.mark.parametrize(
        "method,tile", list(GATHER_PINS), ids=[f"{m}-{t}" for m, t in GATHER_PINS]
    )
    def test_gather_bytes_and_makespan_unchanged(self, method, tile):
        cfg = RunConfig(
            method=method,
            num_ranks=8,
            method_options={} if tile is None else {"tile": tile},
            dataset="engine_low",
            volume_shape=(24, 24, 12),
            image_size=64,
        )
        result = SortLastSystem(cfg).run()
        gather_bytes = [
            rs.stages[GATHER_STAGE].bytes_sent for rs in result.timeline.rank_stats
        ]
        assert (gather_bytes, result.timeline.makespan) == GATHER_PINS[(method, tile)]
