"""The asynchronous tile-routed compositing plane.

Covers the tile grid (:mod:`repro.compositing.tiles`), the barrier-free
engine (:mod:`repro.compositing.tile_engine`), the tag-routed message
pump (:class:`repro.cluster.collectives.TileRouter`), the pipeline
path (render, then composite), and the acceptance invariant: the
tile-routed result is **bit-identical** to ``binary-swap:raw`` on every
paper dataset, rank count, and substrate.
"""

import numpy as np
import pytest

from conftest import rendered_workload, route_tiles
from repro.cluster.collectives import TileRouter
from repro.cluster.model import IDEALIZED, SP2, make_network
from repro.cluster.run_timeline import tile_latency_metrics
from repro.cluster.simulator import Simulator
from repro.compositing.registry import (
    CODECS,
    SCHEDULES,
    available_methods,
    make_compositor,
    method_catalog,
)
from repro.compositing.schedule import IndexPart
from repro.compositing.tiles import (
    build_tile_map,
    densify_contribution,
    fold_tile_planes,
    tile_flat_indices,
)
from repro.errors import CompositingError, ConfigurationError
from repro.experiments.scale import VIEW_DIR, synthetic_subimages
from repro.pipeline.config import RunConfig
from repro.pipeline.system import (
    SortLastSystem,
    assemble_final,
    run_compositing,
    validate_ownership,
)
from repro.render.image import SubImage
from repro.types import Rect
from repro.volume.datasets import PAPER_DATASETS
from repro.volume.folded import refold_survivors
from repro.volume.partition import recursive_bisect

TILE_METHODS = tuple(m for m in available_methods() if m.startswith("tile-routed:"))

SMALL = dict(dataset="engine_low", volume_shape=(24, 24, 12), image_size=32)


def _pipeline(method: str, num_ranks: int, backend: str, **overrides):
    cfg_kwargs = dict(SMALL)
    cfg_kwargs.update(overrides)
    cfg = RunConfig(method=method, num_ranks=num_ranks, backend=backend, **cfg_kwargs)
    return SortLastSystem(cfg).run()


# ---- tile grid --------------------------------------------------------------
class TestTileMap:
    @pytest.mark.parametrize("tile", [1, 5, 16, 100])
    @pytest.mark.parametrize("shape", [(32, 32), (33, 17), (7, 48)])
    def test_rects_partition_the_frame(self, tile, shape):
        frame = Rect.full(*shape)
        tile_map = build_tile_map(frame, tile, 4)
        covered = np.zeros(shape, dtype=int)
        for tid in range(tile_map.num_tiles):
            rect = tile_map.rect(tid)
            assert frame.contains(rect) and not rect.is_empty
            rows, cols = rect.slices()
            covered[rows, cols] += 1
        assert (covered == 1).all()  # disjoint and exhaustive

    def test_round_robin_ownership(self):
        tile_map = build_tile_map(Rect.full(64, 64), 16, 3)
        assert tile_map.owners == tuple(t % 3 for t in range(tile_map.num_tiles))
        for rank in range(3):
            owned = tile_map.owned(rank)
            assert owned == sorted(owned)
            assert all(tile_map.owner(t) == rank for t in owned)
        all_owned = sorted(t for r in range(3) for t in tile_map.owned(r))
        assert all_owned == list(range(tile_map.num_tiles))

    def test_owned_flat_indices_partition_the_pixels(self):
        tile_map = build_tile_map(Rect.full(33, 19), 8, 4)
        seen = np.concatenate(
            [tile_flat_indices(tile_map.rect(t), 19) for r in range(4) for t in tile_map.owned(r)]
        )
        assert sorted(seen.tolist()) == list(range(33 * 19))

    def test_flat_indices_match_slices(self):
        rect = Rect(2, 3, 5, 9)
        idx = tile_flat_indices(rect, 16)
        grid = np.arange(8 * 16).reshape(8, 16)
        rows, cols = rect.slices()
        assert (grid.ravel()[idx] == grid[rows, cols].ravel()).all()

    def test_bad_tile_size_rejected(self):
        with pytest.raises(ConfigurationError):
            build_tile_map(Rect.full(8, 8), 0, 2)


class TestDensify:
    def _contrib(self, **kwargs):
        from repro.compositing.codec import Contribution

        return Contribution(**kwargs)

    def test_full_tile_passthrough(self):
        tile = Rect(0, 0, 4, 4)
        vi = np.arange(16, dtype=np.float64)
        va = np.ones(16)
        contrib = self._contrib(rect=tile, positions=None, values_i=vi, values_a=va)
        out_i, out_a = densify_contribution(contrib, tile)
        assert out_i.shape == (4, 4) and (out_i.ravel() == vi).all()

    def test_sub_rect_block_placement(self):
        tile = Rect(4, 4, 12, 12)
        inner = Rect(6, 8, 8, 10)
        vi = np.full(inner.area, 3.0)
        va = np.full(inner.area, 0.5)
        contrib = self._contrib(rect=inner, positions=None, values_i=vi, values_a=va)
        out_i, out_a = densify_contribution(contrib, tile)
        assert out_i.shape == (8, 8)
        assert out_i.sum() == 3.0 * inner.area
        assert (out_i[2:4, 4:6] == 3.0).all()  # offset by tile origin
        assert out_a[2, 4] == 0.5 and out_a[0, 0] == 0.0

    def test_position_scatter(self):
        tile = Rect(0, 0, 4, 4)
        inner = Rect(1, 1, 3, 3)  # 2x2 window
        contrib = self._contrib(
            rect=inner,
            mask=np.array([[True, False], [False, True]]),  # window corners
            values_i=np.array([1.0, 2.0]),
            values_a=np.array([0.25, 0.75]),
        )
        out_i, out_a = densify_contribution(contrib, tile)
        assert out_i[1, 1] == 1.0 and out_i[2, 2] == 2.0
        assert out_a[1, 1] == 0.25 and out_a[2, 2] == 0.75
        assert out_i.sum() == 3.0

    def test_rect_outside_tile_rejected(self):
        contrib = self._contrib(
            rect=Rect(0, 0, 2, 2),
            positions=None,
            values_i=np.zeros(4),
            values_a=np.zeros(4),
        )
        with pytest.raises(CompositingError):
            densify_contribution(contrib, Rect(1, 1, 3, 3))


class TestFoldTilePlanes:
    def test_matches_sequential_reference(self, rng):
        """The balanced fold equals binary-swap's association — checked
        end to end by the bit-identity tests; here only shape/counting."""
        plan = recursive_bisect((8, 8, 4), 4)
        view = np.array([0.0, 0.0, 1.0])
        planes = [
            (rng.random((3, 3)), rng.random((3, 3)) * 0.5) for _ in range(4)
        ]
        out_i, out_a, folded = fold_tile_planes(planes, plan, view)
        assert out_i.shape == (3, 3)
        assert folded == 3 * 9  # P-1 over ops x tile pixels

    def test_requires_power_of_two(self, rng):
        plan = recursive_bisect((8, 8, 4), 4)
        planes = [(np.zeros((2, 2)), np.zeros((2, 2)))] * 3
        with pytest.raises(CompositingError):
            fold_tile_planes(planes, plan, np.array([0.0, 0.0, 1.0]))


# ---- the engine against binary-swap:raw -------------------------------------
class TestBitIdentity:
    @pytest.mark.parametrize("dataset", PAPER_DATASETS)
    @pytest.mark.parametrize("num_ranks", [4, 8, 16])
    def test_sim_matches_binary_swap_raw(self, dataset, num_ranks):
        subimages, plan, camera = rendered_workload(dataset, num_ranks)
        ref = run_compositing(
            list(subimages), "binary-swap:raw", plan, camera.view_dir, SP2
        )
        ref_img = assemble_final(ref.outcomes, *subimages[0].shape)
        run = run_compositing(
            list(subimages), "tile-routed:rect-rle", plan, camera.view_dir, SP2,
            tile=16,
        )
        validate_ownership(run.outcomes, *subimages[0].shape)
        img = assemble_final(run.outcomes, *subimages[0].shape)
        assert img.max_abs_diff(ref_img) == 0.0

    @pytest.mark.parametrize("method", TILE_METHODS)
    def test_every_codec_is_exact(self, method, rng):
        subimages, plan, camera = rendered_workload("engine_high", 8)
        ref = run_compositing(
            list(subimages), "binary-swap:raw", plan, camera.view_dir, SP2
        )
        ref_img = assemble_final(ref.outcomes, *subimages[0].shape)
        run = run_compositing(list(subimages), method, plan, camera.view_dir, SP2)
        img = assemble_final(run.outcomes, *subimages[0].shape)
        assert img.max_abs_diff(ref_img) == 0.0

    @pytest.mark.parametrize("dataset", PAPER_DATASETS)
    @pytest.mark.parametrize("num_ranks", [4, 8, 16])
    def test_mp_matches_binary_swap_raw(self, dataset, num_ranks):
        ref = _pipeline("binary-swap:raw", num_ranks, "sim", dataset=dataset)
        got = _pipeline(
            "tile-routed:rect-rle", num_ranks, "mp", dataset=dataset,
            method_options={"tile": 8},
        )
        assert got.final_image.max_abs_diff(ref.final_image) == 0.0

    def test_non_power_of_two_via_folding(self):
        ref = _pipeline("binary-swap:raw", 6, "sim")
        got = _pipeline("tile-routed:raw", 6, "sim")
        assert got.final_image.max_abs_diff(ref.final_image) == 0.0


class TestCountersAndLatency:
    @pytest.mark.parametrize("backend", ["sim", "mp"])
    def test_timeline_carries_traffic_and_latency(self, backend):
        result = _pipeline(
            "tile-routed:rect", 4, backend, method_options={"tile": 8}
        )
        doc = result.timeline.to_dict()
        # Per-rank byte/message counters land in stage 0 on every substrate.
        tile_map = build_tile_map(Rect.full(32, 32), 8, 4)
        total_sent = total_recv = 0
        for entry in doc["ranks"]:
            stage0 = next(st for st in entry["stages"] if st["stage"] == 0)
            rank = entry["rank"]
            remote_tiles = tile_map.num_tiles - len(tile_map.owned(rank))
            assert stage0["msgs_sent"] == remote_tiles
            assert stage0["msgs_recv"] == 3 * len(tile_map.owned(rank))
            total_sent += stage0["bytes_sent"]
            total_recv += stage0["bytes_recv"]
        assert total_sent == total_recv > 0
        # Latency metrics ride in the free-form meta.
        assert 0 < doc["meta"]["latency_to_first_pixel"]
        assert (
            doc["meta"]["latency_to_first_pixel"]
            <= doc["meta"]["latency_to_p50_pixels"]
        )
        events = [ev for ev in doc["events"] if ev["event"] == "tile_complete"]
        assert len(events) == tile_map.num_tiles
        assert sum(ev["pixels"] for ev in events) == 32 * 32

    def test_first_pixel_beats_makespan_on_sim(self):
        result = _pipeline("tile-routed:rect", 8, "sim", image_size=64)
        meta = result.timeline.meta
        assert meta["latency_to_first_pixel"] < result.timeline.makespan

    def test_scheduled_methods_have_no_latency_meta(self):
        result = _pipeline("bsbrc", 4, "sim")
        assert "latency_to_first_pixel" not in result.timeline.meta

    def test_metric_helper_edge_cases(self):
        assert tile_latency_metrics([]) == {}
        assert tile_latency_metrics([{"event": "injected"}]) == {}
        got = tile_latency_metrics(
            [
                {"event": "tile_complete", "t": 3.0, "pixels": 10},
                {"event": "tile_complete", "t": 1.0, "pixels": 10},
                {"event": "tile_complete", "t": 2.0, "pixels": 10},
            ]
        )
        assert got["latency_to_first_pixel"] == 1.0
        assert got["latency_to_p50_pixels"] == 2.0

    @pytest.mark.parametrize("topology", ["flat", "fat-tree:radix=16"])
    def test_p64_sparse_scene_matches_bs_and_leads_on_first_pixel(self, topology):
        """P=64, 96 px synthetic subimages at 20 % fill: tile-routed:rect
        is bit-identical to bs, and on the flat link its first final
        pixel lands at least 2x sooner than binary swap's one final
        instant (modelled clocks, so the floor is deterministic)."""
        plan = recursive_bisect((64, 64, 64), 64)
        runs = {
            method: run_compositing(
                synthetic_subimages(64, 96, 0.2), method, plan, VIEW_DIR, SP2,
                network=make_network(topology, SP2), **options,
            )
            for method, options in (("bs", {}), ("tile-routed:rect", {"tile": 16}))
        }
        bs, tile = runs["bs"], runs["tile-routed:rect"]
        assert assemble_final(tile.outcomes, 96, 96).max_abs_diff(
            assemble_final(bs.outcomes, 96, 96)
        ) == 0.0
        if topology == "flat":
            events = [ev for rs in tile.stats.rank_stats for ev in rs.events]
            first = tile_latency_metrics(events)["latency_to_first_pixel"]
            assert bs.stats.makespan >= 2.0 * first


# ---- the pipeline path ------------------------------------------------------
class TestFusedPhase:
    """Tile-routed runs take the render → composite → gather path of
    every other method (the class keeps the name of the fused phase it
    once tested)."""

    def test_fused_matches_split_pipeline(self):
        tiled = _pipeline("tile-routed:rect-rle", 4, "sim")
        split = _pipeline("binary-swap:raw", 4, "sim")
        assert tiled.final_image.max_abs_diff(split.final_image) == 0.0
        # The pristine per-rank renders are the scheduled method's.
        for tiled_sub, split_sub in zip(tiled.subimages, split.subimages):
            assert tiled_sub.max_abs_diff(split_sub) == 0.0

    def test_clip_rect_render_is_bit_identical_inside_window(self):
        from repro.pipeline.phases import build_scene
        from repro.render.raycast import render_subvolume

        cfg = RunConfig(method="bs", num_ranks=4, **SMALL)
        scene = build_scene(cfg)
        extent = scene.plan.extent(1)
        full = render_subvolume(scene.volume, scene.transfer, scene.camera, extent)
        window = Rect(4, 4, 20, 28)
        clipped = render_subvolume(
            scene.volume, scene.transfer, scene.camera, extent, clip_rect=window
        )
        rows, cols = window.slices()
        assert (clipped.intensity[rows, cols] == full.intensity[rows, cols]).all()
        assert (clipped.opacity[rows, cols] == full.opacity[rows, cols]).all()
        outside = clipped.intensity.copy()
        outside[rows, cols] = 0.0
        assert not outside.any()

    def test_folded_plan_takes_the_unfused_path(self):
        # Folded plans wrap the same run; they produce the right image.
        result = _pipeline("tile-routed:rect", 5, "sim")
        ref = _pipeline("bsbrc", 5, "sim")
        assert result.final_image.max_abs_diff(ref.final_image) == 0.0


# ---- the message pump -------------------------------------------------------
class TestTileRouter:
    def test_route_tiles_round_trip(self):
        owners = (0, 1, 0, 1)

        async def program(ctx):
            outgoing = {
                tid: (f"r{ctx.rank}-t{tid}".encode(), 8)
                for tid in range(4)
                if owners[tid] != ctx.rank
            }
            return await route_tiles(ctx, owners, outgoing)

        result = Simulator(2, IDEALIZED).run(program)
        assert result.returns[0] == {0: [b"r1-t0"], 2: [b"r1-t2"]}
        assert result.returns[1] == {1: [b"r0-t1"], 3: [b"r0-t3"]}

    def test_push_to_own_tile_rejected(self):
        async def program(ctx):
            router = TileRouter(ctx, (0, 1))
            await router.push(ctx.rank, b"x", 1)

        from repro.errors import RankFailedError

        with pytest.raises(RankFailedError):
            Simulator(2, IDEALIZED).run(program)

    def test_contributions_ordered_by_source_rank(self):
        owners = (2,)

        async def program(ctx):
            router = TileRouter(ctx, owners)
            if ctx.rank == 2:
                await router.post_receives([0])
                raws = await router.collect(0)
                return [bytes(raw) for raw in raws]
            # Rank 1 pushes "before" rank 0 in program order; the owner
            # still sees contributions in ascending source-rank order.
            if ctx.rank == 1:
                await router.push(0, b"from-1", 6)
            else:
                await ctx.compute(5.0)
                await router.push(0, b"from-0", 6)
            await router.flush()

        result = Simulator(3, SP2).run(program)
        assert result.returns[2] == [b"from-0", b"from-1"]


# ---- satellite (a): irecv tag default unification ---------------------------
class TestIrecvAnyTagDefault:
    def test_defaults_agree_across_substrates(self):
        import inspect

        from repro.cluster.context import RankContext
        from repro.cluster.events import ANY_TAG
        from repro.cluster.mp_backend import MPRankContext
        from repro.cluster.protocol import BaseRankContext

        for cls in (BaseRankContext, RankContext, MPRankContext):
            sig = inspect.signature(cls.irecv)
            assert sig.parameters["tag"].default == ANY_TAG, cls
            recv_sig = inspect.signature(cls.recv)
            assert (
                sig.parameters["tag"].default == recv_sig.parameters["tag"].default
            ), f"{cls}: irecv and recv disagree on the default tag"

    def test_sim_wildcard_takes_oldest_isend(self):
        async def program(ctx):
            if ctx.rank == 0:
                await ctx.wait(await ctx.isend(1, b"first", tag=7))
                await ctx.wait(await ctx.isend(1, b"second", tag=3))
            else:
                a = await ctx.wait(await ctx.irecv(0))  # default: ANY_TAG
                b = await ctx.wait(await ctx.irecv(0))
                return a, b

        result = Simulator(2, IDEALIZED).run(program)
        assert result.returns[1] == (b"first", b"second")

    def test_exact_tag_still_filters(self):
        async def program(ctx):
            if ctx.rank == 0:
                recv = await ctx.irecv(1, tag=9)
                return await ctx.wait(recv)
            await ctx.wait(await ctx.isend(0, b"tagged", tag=9))

        result = Simulator(2, IDEALIZED).run(program)
        assert result.returns[0] == b"tagged"

    def test_negative_tag_rejected(self):
        from repro.cluster.events import IrecvOp

        with pytest.raises(ValueError):
            IrecvOp(0, tag=-2)


# ---- satellite (b): topology rejection on real transports -------------------
class TestFlatNetworkRejection:
    def test_mp_rejects_modelled_topology_with_spec(self):
        network = make_network("fat-tree:radix=8", SP2)
        assert network.spec == "fat-tree:radix=8"
        cfg = RunConfig(
            method="bs", num_ranks=2, backend="mp",
            topology="fat-tree:radix=8", **SMALL,
        )
        with pytest.raises(ConfigurationError) as err:
            SortLastSystem(cfg).run()
        message = str(err.value)
        assert "fat-tree:radix=8" in message  # names the offending spec
        assert "'sim'" in message  # lists topology-capable backends
        assert "--topology" in message

    def test_flat_spec_still_allowed_on_mp(self):
        result = _pipeline("bs", 2, "mp", topology="flat")
        assert result.final_image is not None

    def test_spec_stamped_for_bare_names(self):
        assert make_network("torus", SP2).spec == "torus"
        assert make_network(None, SP2).spec == "flat"


# ---- satellite (c): refold pairing across every schedule --------------------
class TestRefoldPairs:
    @pytest.mark.parametrize("schedule_name", sorted(SCHEDULES))
    @pytest.mark.parametrize("size", [3, 6, 12])
    def test_every_schedule_reports_bisection_buddies(self, schedule_name, size):
        schedule = SCHEDULES[schedule_name]()
        pairs = schedule.refold_pairs(size)
        assert pairs == [(2 * i, 2 * i + 1) for i in range(size // 2)]
        flat = [r for pair in pairs for r in pair]
        assert len(set(flat)) == len(flat)  # disjoint
        assert all(0 <= r < size for r in flat)

    @pytest.mark.parametrize("schedule_name", sorted(SCHEDULES))
    @pytest.mark.parametrize("size", [4, 8, 16])
    def test_pairs_accepted_by_refold_survivors(self, schedule_name, size):
        plan = recursive_bisect((16, 16, 8), size)
        pairs = SCHEDULES[schedule_name]().refold_pairs(size)
        folded, rank_map = refold_survivors(plan, [size - 1], pairs=pairs)
        assert folded.core_ranks == size // 2
        assert len(rank_map) == size - 1

    @pytest.mark.parametrize("size", [3, 6, 12])
    def test_tile_engine_reports_the_same_pairing(self, size):
        compositor = make_compositor("tile-routed:raw")
        assert compositor.refold_pairs(size) == [
            (2 * i, 2 * i + 1) for i in range(size // 2)
        ]


# ---- registry ---------------------------------------------------------------
class TestRegistry:
    def test_all_rect_codecs_addressable(self):
        expected = {
            f"tile-routed:{c}"
            for c, cls in CODECS.items()
            if "rect" in cls.supports
        }
        assert expected == set(TILE_METHODS)
        for method in expected:
            make_compositor(method)

    def test_catalog_describes_tile_methods(self):
        catalog = method_catalog()
        for method in TILE_METHODS:
            assert "no stage barriers" in catalog[method]

    def test_unknown_codec_and_options_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown codec"):
            make_compositor("tile-routed:nope")
        with pytest.raises(ConfigurationError, match="option"):
            make_compositor("tile-routed:raw", radix=[4])
        with pytest.raises(ConfigurationError):
            make_compositor("tile-routed:raw", tile=0)

    def test_tile_option_accepted(self):
        compositor = make_compositor("tile-routed:rect", tile=48)
        assert compositor.tile == 48
        assert compositor.name == "tile-routed:rect"

    def test_unknown_schedule_suggests_tile_routed(self):
        with pytest.raises(ConfigurationError, match="tile-routed"):
            make_compositor("tile-route:rect")


# ---- CLI --------------------------------------------------------------------
class TestCli:
    def test_tile_flag_reaches_method_options(self):
        from repro.experiments.cli import _method_options_from, build_parser

        parser = build_parser()
        args = parser.parse_args(
            ["run", "--method", "tile-routed:rect", "--tile", "24"]
        )
        assert _method_options_from(args) == {"tile": 24}

    def test_tile_flag_defaults_off(self):
        from repro.experiments.cli import _method_options_from, build_parser

        args = build_parser().parse_args(["run", "--method", "bsbrc"])
        assert "tile" not in _method_options_from(args)
