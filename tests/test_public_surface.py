"""The package's public surface holds together.

Deleting or renaming a module must leave no dangling import, no
``__all__`` entry that does not resolve, and no second place where the
version is written.
"""

import dataclasses
import importlib
import inspect
import pkgutil
import re
import typing
from pathlib import Path

import pytest

import repro
import repro.compositing
import repro.serving
from repro.errors import ConfigurationError

ROOT = Path(__file__).resolve().parent.parent

#: Public names removed with the hand-written method classes, the second
#: wire-kernel family, the hypercube schedule helpers, the mp shim, the
#: splatting renderer, the second rank program, the step-chunked
#: marcher, the MPI substrate, BSLC's index-array parts, the
#: reference implementations that moved to ``tests/oracles.py`` with the
#: collectives nothing called, the second sparse folds, rect
#: helpers and result views, the mp supervisor's in-place respawn, and
#: the transport's heartbeats, send retries and unused ``barrier`` verb,
#: the fused tile-routed phase with its band marcher, and the harness's
#: own block cache and the raw-trace JSON writer
#: (CHANGELOG lists each with its replacement, or says it has none).
REMOVED_NAMES = {
    "BinarySwap",
    "BinarySwapBoundingRect",
    "BinarySwapBoundingRectCompression",
    "BinarySwapLoadBalancedCompression",
    "BinarySwapValueCompression",
    "final_owned_indices",
    "pack_pixels_rect",
    "unpack_pixels_rect",
    "pack_raw_seq",
    "unpack_raw_seq",
    "pack_rle_rect",
    "unpack_rle_rect",
    "binary_swap_partner",
    "binary_swap_schedule",
    "binary_tree_schedule",
    "TreeStep",
    "ring_next",
    "ring_prev",
    "run_compositing_mp",
    "splat_subvolume",
    "splat_full",
    "dominant_axis",
    "psnr",
    "image_delta",
    "ImageDelta",
    "mean_abs_error",
    "degraded_rank_program",
    "DEFAULT_CHUNK_STEPS",
    "MPIBackend",
    "MPIRankContext",
    "MPIRequest",
    "require_mpi",
    "initial_indices",
    "split_interleaved",
    "validate_method",
    "part_pixels",
    "ENGINES",
    "bcast",
    "allreduce",
    "route_tiles",
    "_gather_tree",
    "_lockstep_engine",
    "_resolve_matches",
    "_march_reference",
    "_rle_encode_mask_loop",
    "_rle_decode_mask_loop",
    "composite_sparse_rect",
    "composite_sequence_pixels",
    "split_rect_by_centerline",
    "clip_rect",
    "composite_under",
    "blank_mask",
    "to_run_result",
    "stats_view",
    "counters",
    "per_stage_totals",
    "t_comp_mean",
    "t_comm_mean",
    "fault_injector",
    "close_session",
    "jobs_submitted",
    "RespawnPlan",
    "RESUME_LATEST",
    "respawn_budget",
    "_drop_older",
    "_total_msgs_sent",
    "heartbeat_interval",
    "HEARTBEAT_INTERVAL",
    "RETRANSMIT_BUDGET",
    "BarrierOp",
    "barrier",
    "_try_release_barrier",
    "run_fused",
    "fused_render_composite_phase",
    "_fusable",
    "render_phase",
    "march_into",
    "_select",
    "Blocks",
    "_CACHE_VERSION",
    "_blocks_to_entry",
    "_blocks_from_entry",
    "trace_to_json",
}

#: Classes that carried one of the removed names (a second view or entry).
REMOVED_FROM_CLASSES = (
    "repro.render.image.SubImage",
    "repro.cluster.stats.RunResult",
    "repro.cluster.backend.BackendRunResult",
    "repro.cluster.run_timeline.RunTimeline",
    "repro.cluster.mp_backend.MPRankContext",
    "repro.cluster.mp_backend.MPRunResult",
    "repro.cluster.protocol.BaseRankContext",
    "repro.cluster.context.RankContext",
    "repro.cluster.recovery.RecoveryPolicy",
    "repro.cluster.recovery.DiskCheckpointStore",
    "repro.compositing.tile_engine.TileRoutedCompositor",
    "repro.render.raycast.RaySetup",
    "repro.pipeline.config.RunConfig",
    "repro.serving.service.RenderService",
    "repro.serving.service.SessionHandle",
)

#: Modules deleted with the MPI substrate and the index-array parts.
REMOVED_MODULES = (
    "repro.cluster.mpi_backend",
    "repro.pipeline.mpi_main",
    "repro.compositing.interleave",
)

#: Every module but the ``python -m`` entry scripts, which run on import.
MODULES = sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    if not info.name.endswith(".__main__")
)


def test_walk_finds_the_package():
    assert "repro.compositing.wire" in MODULES and len(MODULES) > 60


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_and_all_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), "duplicate __all__ entries"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names unresolved: {missing}"


@pytest.mark.parametrize(
    "package",
    [
        "repro", "repro.compositing", "repro.cluster", "repro.pipeline",
        "repro.pipeline.phases", "repro.render", "repro.render.raycast", "repro.analysis",
        "repro.compositing.codec", "repro.compositing.registry", "repro.compositing.rle",
        "repro.cluster.simulator", "repro.cluster.collectives",
        "repro.cluster.recovery", "repro.cluster.mp_backend",
        "repro.compositing.tile_engine",
    ],
)
def test_removed_names_stay_removed(package):
    module = importlib.import_module(package)
    assert not REMOVED_NAMES & set(module.__all__)
    assert not [name for name in REMOVED_NAMES if hasattr(module, name)]


def test_one_scheduler_one_marcher_one_gather():
    """No switch selects a second implementation: the references the
    tests compare against live in ``tests/oracles.py``."""
    from repro.cluster.collectives import gather
    from repro.cluster.simulator import Simulator
    from repro.pipeline.system import run_compositing
    from repro.render.raycast import RaySetup, render_full, render_subvolume

    for accepts in (Simulator, run_compositing, RaySetup, render_subvolume, render_full, gather):
        assert not {"engine", "march", "algorithm"} & set(
            inspect.signature(accepts).parameters
        ), accepts
    assert not [name for name in REMOVED_NAMES if hasattr(Simulator, name)]


def test_run_path_options_stay_removed():
    """One way to run a frame: it always gathers, ``recovery="abort"`` is
    the one spelling of no-degrade, and the ray caster is the renderer."""
    from repro.experiments.harness import run_grid, run_method
    from repro.pipeline import RenderJob, RunConfig, SortLastSystem

    gone = {"gather_final", "degrade", "renderer"}
    for accepts in (SortLastSystem.run, RenderJob, RunConfig):
        assert not gone & set(inspect.signature(accepts).parameters), accepts
    for accepts in (run_method, run_grid):
        params = inspect.signature(accepts).parameters
        assert "pool" not in params and "engine" not in params, accepts
    assert not hasattr(repro.serving.RenderService, "shutdown")  # close() is the one name


def test_marcher_options_stay_removed():
    """The ray-batched marcher samples a ray's whole span at once: there
    is no step chunk to size and no point to cut a ray off at."""
    from repro.render.raycast import RaySetup, render_full, render_subvolume

    for accepts in (render_subvolume, render_full, RaySetup.march):
        params = inspect.signature(accepts).parameters
        assert not {"early_termination", "chunk_steps"} & set(params), accepts
        assert not any(p.kind is p.VAR_KEYWORD for p in params.values()), accepts


def test_no_compositor_takes_charge_pack():
    """Pricing a free pack is a machine-model choice (``tpack=0``), not a
    compositor option."""
    from repro.compositing.registry import available_methods, make_compositor

    for method in available_methods():
        compositor = make_compositor(method)
        assert "charge_pack" not in inspect.signature(type(compositor)).parameters
        with pytest.raises((ConfigurationError, TypeError)):
            make_compositor(method, charge_pack=False)


@pytest.mark.parametrize("path", REMOVED_FROM_CLASSES)
def test_removed_views_stay_removed(path):
    """Each result has one view: the stats it holds, reduced where read."""
    module, _, name = path.rpartition(".")
    cls = getattr(importlib.import_module(module), name)
    assert not [attr for attr in REMOVED_NAMES if hasattr(cls, attr)], path


def _defined_functions():
    """Every function and method whose source lives in the package."""
    package_dir = str(Path(repro.__file__).parent)
    for name in MODULES:
        module = importlib.import_module(name)
        for attr, obj in vars(module).items():
            if getattr(obj, "__module__", None) != name:
                continue
            members = vars(obj).items() if inspect.isclass(obj) else [("", obj)]
            for member_name, member in members:
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                elif isinstance(member, property):
                    member = member.fget
                if inspect.isfunction(member) and member.__code__.co_filename.startswith(
                    package_dir
                ):
                    yield f"{name}.{attr}.{member_name}".rstrip("."), member


def test_every_annotation_resolves():
    """``typing.get_type_hints`` works on the whole package: no
    annotation names a type that is missing at run time."""
    unresolved = []
    for qualname, func in _defined_functions():
        try:
            typing.get_type_hints(func)
        except NameError as err:
            unresolved.append(f"{qualname}: {err}")
    assert not unresolved


@pytest.mark.parametrize("name", REMOVED_MODULES)
def test_removed_modules_stay_removed(name):
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(name)


def test_backend_interface_has_no_engine_switch_and_no_spmd_rank():
    """The backend interface selects no simulator engine (there is one),
    and no backend runs as one SPMD rank of a job it did not launch."""
    from repro.cluster.backend import Backend, BackendRunResult, MPBackend, SimBackend

    assert "local_rank" not in {f.name for f in dataclasses.fields(BackendRunResult)}
    for accepts in (Backend.run, SimBackend.run, MPBackend.run):
        assert "engine" not in inspect.signature(accepts).parameters, accepts


def test_recovery_has_one_path(tmp_path):
    """Lossless recovery is the lockstep re-run in ``SortLastSystem``:
    no backend restarts a worker in place, reports supervisor events,
    or takes a respawn plan, and no store compacts its history."""
    from repro.cluster.backend import Backend, BackendRunResult, MPBackend, SimBackend
    from repro.cluster.mp_backend import MPRunResult, run_rank_programs_mp
    from repro.cluster.recovery import DiskCheckpointStore, RecoveryPolicy
    from repro.experiments.cli import build_parser
    from repro.pipeline import RunConfig

    for result in (BackendRunResult, MPRunResult):
        assert "events" not in {f.name for f in dataclasses.fields(result)}, result
    assert "respawn_budget" not in {f.name for f in dataclasses.fields(RunConfig)}
    assert "respawn_budget" not in {f.name for f in dataclasses.fields(RecoveryPolicy)}
    assert list(inspect.signature(RecoveryPolicy.resolve).parameters) == ["value"]
    for accepts in (Backend.run, SimBackend.run, MPBackend.run):
        assert list(inspect.signature(accepts).parameters) == [
            "self", "num_ranks", "program", "args", "model", "trace",
            "timeout", "network", "schedule_policy",
        ], accepts
    assert "respawn" not in inspect.signature(run_rank_programs_mp).parameters
    assert list(inspect.signature(DiskCheckpointStore.__init__).parameters) == [
        "self", "root", "run_id",
    ]
    assert not hasattr(DiskCheckpointStore(str(tmp_path)), "compact")
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "--respawn-budget", "2"])


def test_mp_transport_has_one_death_detector():
    """The supervisor's sentinels detect a dead rank and the receive
    timeout a hung one: no worker thread stamps liveness, and no shared
    array or barrier crosses the fork."""
    from repro.cluster import mp_backend
    from repro.experiments.cli import build_parser

    source = inspect.getsource(mp_backend)
    assert "threading" not in source
    assert ".Array(" not in source and ".Barrier(" not in source
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "--heartbeat-interval", "1"])


def test_service_knobs_stay_removed():
    """The service builds its one pool from ``max_workers``, and the
    spool refreshes a lease every third of ``lease_s``: neither is an
    option."""
    from repro.serving import RenderService, serve

    assert "pool" not in inspect.signature(RenderService).parameters
    assert "heartbeat_s" not in inspect.signature(serve).parameters


def test_harness_renders_through_the_pipeline():
    """The harness renders with ``RankRender`` into the one per-rank
    cache that ``REPRO_CACHE_DIR`` switches on, and the topology spec
    is the one place a link capacity is written."""
    from repro.cache import entry_path
    from repro.cluster.model import make_network
    from repro.experiments import harness
    from repro.experiments.cli import build_parser
    from repro.pipeline import RunConfig

    assert not {"render_subvolume", "make_dataset", "recursive_bisect"} & set(vars(harness))
    for accepts in (harness.RenderedWorkload, harness.workload):
        assert "cache_dir" not in inspect.signature(accepts).parameters, accepts
    assert list(inspect.signature(entry_path).parameters) == ["prefix", "key_fields"]
    assert list(inspect.signature(make_network).parameters) == ["spec", "model"]
    assert "link_capacity" not in {f.name for f in dataclasses.fields(RunConfig)}
    for command in ("run", "scale"):
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--links", "2.0"])


def test_version_has_one_source():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    assert "version" not in project["project"]
    assert project["project"]["dynamic"] == ["version"]
    dynamic = project["tool"]["setuptools"]["dynamic"]
    assert dynamic["version"] == {"attr": "repro.__version__"}
    cited = re.search(
        r"^version:\s*(\S+)$", (ROOT / "CITATION.cff").read_text(encoding="utf-8"), re.M
    )
    assert cited and cited.group(1).strip("\"'") == repro.__version__
