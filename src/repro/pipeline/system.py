"""The sort-last-sparse system: partition → render → composite → gather.

Two entry points:

* :func:`run_compositing` — the paper's measurement unit: given already
  rendered per-rank subimages, run just the compositing phase on the
  simulated cluster and return per-rank outcomes plus the timing stats
  that populate Tables 1-2.
* :class:`SortLastSystem` — the full pipeline driven by a
  :class:`~repro.pipeline.config.RunConfig`, executed end to end on a
  pluggable :class:`~repro.cluster.backend.Backend`: every rank renders
  its subvolume *inside* its rank program, composites, and the owned
  pieces are gathered to rank 0 over the same substrate.  The simulator
  and the multiprocessing backend produce bit-identical final images
  (tested); the result carries the run's
  :class:`~repro.cluster.stats.RunResult` either way.
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

import numpy as np

from ..cache import cache_dir
from ..cluster.backend import Backend, make_backend
from ..cluster.faults import FaultPlan, crash_phase_of, crash_stage_of
from ..cluster.model import MachineModel
from ..cluster.recovery import (
    CheckpointStore,
    DiskCheckpointStore,
    MemoryCheckpointStore,
    RecoveryPolicy,
    RecoveryRuntime,
    run_outcome,
)
from ..cluster.progress import ProgressFeed, progress_meta, tile_latency_metrics
from ..cluster.schedule_policy import schedule_meta
from ..cluster.simulator import Simulator
from ..cluster.stats import RunResult
from ..compositing.base import CompositeOutcome, Compositor
from ..compositing.registry import make_compositor
from ..errors import CompositingError, ConfigurationError, RankFailedError
from ..render.camera import Camera
from ..render.image import SubImage
from ..render.reference import composite_sequential
from ..volume.folded import FoldedPartition, folded_depth_order, refold_survivors
from ..volume.partition import PartitionPlan, depth_order
from .assemble import assemble_final, scatter_tile
from .config import RunConfig
from .phases import (
    GATHER_STAGE,
    RankRender,
    build_scene,
    compositor_for,
    pipeline_rank_program,
)
from .render_pool import shared_pool

__all__ = [
    "CompositingRun",
    "SystemResult",
    "SortLastSystem",
    "run_compositing",
    "assemble_final",
    "validate_ownership",
    "GATHER_STAGE",
]


@dataclass
class CompositingRun:
    """Outcome of one compositing phase."""

    compositor: Compositor
    outcomes: list[CompositeOutcome]
    stats: RunResult

    @property
    def method(self) -> str:
        return self.compositor.name


def run_compositing(
    images: Sequence[SubImage],
    method: str | Compositor,
    plan: PartitionPlan | FoldedPartition,
    view_dir: np.ndarray,
    model: MachineModel,
    *,
    network=None,
    **method_options: Any,
) -> CompositingRun:
    """Composite pre-rendered subimages on the simulated cluster.

    ``images[r]`` is rank ``r``'s rendered subimage; inputs are read,
    never written.  Returns each rank's owned pieces plus the
    :class:`RunResult` whose totals are exactly the compositing-phase
    ``T_comp``/``T_comm``.

    Passing a :class:`~repro.volume.folded.FoldedPartition` (any rank
    count) automatically wraps swap-structured methods in a
    :class:`~repro.compositing.folding.FoldedCompositor`.

    ``network`` routes message arrivals through a
    :class:`~repro.cluster.model.Network` topology (``None`` = the
    paper's flat link).
    """
    num_ranks = len(images)
    if plan.num_ranks != num_ranks:
        raise CompositingError(
            f"{num_ranks} images supplied for a {plan.num_ranks}-rank plan"
        )
    compositor = compositor_for(method, plan, **method_options)
    view_dir = np.asarray(view_dir, dtype=np.float64)
    outcomes: list[CompositeOutcome | None] = [None] * num_ranks

    async def program(ctx):
        outcomes[ctx.rank] = await compositor.run(ctx, images[ctx.rank], plan, view_dir)

    stats = Simulator(num_ranks, model, network=network).run(program)
    assert all(o is not None for o in outcomes)
    return CompositingRun(
        compositor=compositor,
        outcomes=outcomes,  # type: ignore[arg-type]
        stats=stats,
    )


def validate_ownership(
    outcomes: Sequence[CompositeOutcome], height: int, width: int
) -> None:
    """Check that rank ownerships partition the ``height x width`` image
    exactly once.

    Methods where one rank ends with the whole image (binary tree) only
    pass when a single outcome is supplied — empty ownerships contribute
    nothing.
    """
    seen = SubImage.blank(height, width)
    for outcome in outcomes:
        for part, _, _ in outcome:
            counts = part.pixels(seen.intensity) + 1.0
            scatter_tile(seen, part, counts, counts)
    if not np.all(seen.intensity == 1.0):
        missing = int((seen.intensity == 0.0).sum())
        dup = int((seen.intensity > 1.0).sum())
        raise CompositingError(
            f"ownership is not a partition: {missing} unowned, {dup} multiply-owned pixels"
        )


@dataclass
class SystemResult:
    """Everything the full pipeline produces."""

    config: RunConfig
    plan: PartitionPlan | FoldedPartition
    camera: Camera
    subimages: list[SubImage]
    compositing: CompositingRun
    final_image: SubImage
    #: Short name of the backend that executed the run ("sim"/"mp").
    backend_name: str = "sim"
    #: The run's record (all phases, including the gather stage),
    #: without the rank returns.
    timeline: Optional[RunResult] = field(default=None, repr=False)
    #: True when ranks were lost and the run re-folded onto survivors;
    #: the final image is partial-but-valid and the timeline carries the
    #: fault/degradation events.
    degraded: bool = False
    #: Original ranks lost before compositing (degraded runs only).
    failed_ranks: list[int] = field(default_factory=list)
    #: True when a failure was absorbed *losslessly* — a lockstep replay
    #: (``respawn`` or ``checkpoint-resume``) produced the full-fidelity
    #: image (contrast ``degraded``, which drops the failed rank's data).
    recovered: bool = False

    def reference_image(self) -> SubImage:
        """Sequential depth-order composite of the rendered subimages."""
        if isinstance(self.plan, FoldedPartition):
            order = folded_depth_order(self.plan, self.camera.view_dir)
        else:
            order = depth_order(self.plan, self.camera.view_dir)
        return composite_sequential(self.subimages, order)


class SortLastSystem:
    """Full sort-last-sparse pipeline on a pluggable execution backend.

    On the simulator the ranks' subimages render in the process-wide
    :func:`~repro.pipeline.render_pool.shared_pool` while the engine
    composites, whatever the method.
    """

    def __init__(self, config: RunConfig):
        self.config = config

    def run(
        self,
        *,
        backend: str | Backend | None = None,
        trace: bool = False,
        fault_plan: Optional[FaultPlan] = None,
        recovery: "str | RecoveryPolicy | None" = None,
        schedule_policy=None,
        progress: Optional[ProgressFeed] = None,
        checkpoint_store: Optional[CheckpointStore] = None,
    ) -> SystemResult:
        """Execute partition → render → composite → gather & assemble.

        ``backend`` overrides the config's ``backend`` field; pass a
        short name ("sim", "mp") or a
        :class:`~repro.cluster.backend.Backend` instance.  ``trace``
        records the simulator's event trace into the timeline.

        ``fault_plan`` injects the plan's faults through the shared
        protocol layer (identically on every backend).  What happens
        when a rank is then lost is decided by one recovery policy on
        the lattice ``abort < degrade < respawn < checkpoint-resume``
        (see :mod:`repro.cluster.recovery`): ``recovery`` overrides the
        config's ``recovery`` field.  ``respawn`` and
        ``checkpoint-resume`` replay every rank in lockstep (from stage
        0, or from the common checkpointed stage) and are lossless on
        every backend; ``degrade`` re-folds onto the survivors; a crash
        that cannot degrade re-raises the typed error.  Every recovery
        decision lands as a structured event in the result's timeline.

        Every engine run of this call — the first try and a recovery
        re-run — is one ``attempt`` of the same rank program with the
        same substrate options (machine, network, timeout, ``trace``,
        ``schedule_policy``, ``progress``); a re-run changes only what
        :meth:`_recover` returns, and never re-arms the fault plan.

        ``schedule_policy`` (a
        :class:`~repro.cluster.schedule_policy.SchedulePolicy`,
        simulator only) hands the engine's event-ordering freedom to
        the schedule explorer.  The same instance drives every attempt,
        so its decision log covers the whole execution and replays it
        end to end; the policy name, decision count, and trace path
        (when arranged) land in the timeline meta.

        ``progress`` (a :class:`~repro.cluster.progress.ProgressFeed`,
        simulator only, one feed per run) streams a bit-exact partial
        frame after every completed exchange stage / completed tile and
        a flagged ``final`` event; the feed is closed when this call
        returns (or raises).  A re-run resets the feed's per-attempt
        accounting, so coverage stays monotone across a degraded
        restart.  Feeds cannot cross the mp process boundary, so
        real transports reject one up front.

        ``checkpoint_store`` (requires a resume-capable ``recovery``
        policy) replaces the run-private store with a caller-owned one —
        neither cleared nor deleted when this call returns.  This is the
        whole-run-resume hook: a serving process can keep a job's
        :class:`~repro.cluster.recovery.DiskCheckpointStore` in a
        crash-survivable location, and a *different* process can later
        rerun the job against the same store.  A caller-owned store
        always resumes from its common stage: the highest stage every
        rank checkpointed (verified loadable), replaying only the tail —
        on the simulator *and* on mp, since all ranks restart together
        the lockstep replay is always protocol-consistent.  An empty
        store has no common stage, so the run starts fresh (snapshots
        still saved).
        """
        cfg = self.config
        if backend is None:
            backend = cfg.backend
        engine = make_backend(backend) if isinstance(backend, str) else backend
        if progress is not None and engine.name != "sim":
            raise ConfigurationError(
                "live progress feeds require the simulator backend (all ranks "
                f"share one process); backend {engine.name!r} cannot share a "
                "feed across process boundaries"
            )
        policy = RecoveryPolicy.resolve(cfg.recovery if recovery is None else recovery)

        # Host-side scene build: the result mirrors what every rank
        # derives (memoized, and inherited by forked mp workers).
        scene = build_scene(cfg)

        if checkpoint_store is not None:
            if not policy.allows_resume:
                raise ConfigurationError(
                    "checkpoint_store requires a resume-capable recovery "
                    f"policy (checkpoint-resume), got {policy.name!r}"
                )
            store, cleanup = checkpoint_store, None  # caller owns lifecycle
            runtime = RecoveryRuntime(
                store=store, resume=store.resumable_stage(cfg.num_ranks)
            )
        else:
            store, cleanup = self._make_store(engine, policy)
            runtime = None if store is None else RecoveryRuntime(store=store)

        network = cfg.build_network()

        def attempt(
            plan=None, *, fault_plan=None, runtime=None, **result_flags
        ) -> SystemResult:
            """One pass of the rank program over the substrate, built
            into a result.  ``plan`` overrides the scene's partition
            (and with it the rank count); ``result_flags`` are the
            events/flags a recovery re-run stamps on its result."""
            run_scene = scene if plan is None else scene._replace(plan=plan)
            renders = self._issue_renders(engine, run_scene)
            try:
                record = engine.run(
                    run_scene.plan.num_ranks,
                    pipeline_rank_program,
                    (cfg, fault_plan, runtime, progress, plan, renders),
                    model=cfg.machine,
                    trace=trace,
                    timeout=cfg.comm_timeout,
                    network=network,
                    schedule_policy=schedule_policy,
                )
            finally:
                # A failed or deadlined run leaves renders nobody awaits.
                for render in renders or ():
                    render.cancel()
            return self._build_result(
                engine, run_scene, record,
                schedule_policy=schedule_policy, progress=progress, **result_flags,
            )

        try:
            try:
                return attempt(fault_plan=fault_plan, runtime=runtime)
            except RankFailedError as err:
                rerun = self._recover(engine, scene.plan, err, policy, store)
                if progress is not None:
                    progress.reset_attempt()
                return attempt(**rerun)
        finally:
            if progress is not None:
                progress.close()
            if cleanup is not None:
                cleanup()

    def _issue_renders(self, engine: Backend, scene) -> Optional[list[RankRender]]:
        """Every rank's render, issued before the simulator starts so the
        pool renders later ranks while earlier ones composite.  ``None``
        (each rank renders itself) on mp, whose ranks already render in
        their own processes."""
        if engine.name != "sim":
            return None
        pool = shared_pool()
        plan = scene.plan
        return [RankRender(pool, self.config, r, plan.extent(r)) for r in range(plan.num_ranks)]

    def _make_store(
        self, engine: Backend, policy: RecoveryPolicy
    ) -> "tuple[Optional[CheckpointStore], Optional[Callable[[], None]]]":
        """Checkpoint store matched to the substrate (plus its cleanup).

        Only ``checkpoint-resume`` pays for snapshots.  The simulator
        runs all ranks in one process (memory store); multiprocessing
        crosses process boundaries (disk store under ``REPRO_CACHE_DIR``
        or a private temp dir removed after the run).
        """
        if not policy.allows_resume:
            return None, None
        if engine.name == "sim":
            store: CheckpointStore = MemoryCheckpointStore()
            return store, store.clear
        root = cache_dir()
        tmp_root = None
        if root is None:
            tmp_root = tempfile.mkdtemp(prefix="repro-ckpt-")
            root = tmp_root
        disk = DiskCheckpointStore(root)

        def _cleanup() -> None:
            disk.clear()
            if tmp_root is not None:
                shutil.rmtree(tmp_root, ignore_errors=True)

        return disk, _cleanup

    def _recover(
        self,
        engine: Backend,
        plan: PartitionPlan | FoldedPartition,
        err: RankFailedError,
        policy: RecoveryPolicy,
        store: Optional[CheckpointStore],
    ) -> dict[str, Any]:
        """Walk down the policy lattice after a rank failure: what the
        re-run ``attempt`` changes, or re-raise.

        Order: lockstep replay (``respawn``/``checkpoint-resume``), then
        refold-based degradation, then re-raise (abort).
        """
        cfg = self.config
        phase = crash_phase_of(err)
        stage = crash_stage_of(err)
        failed = [err.rank]
        detected: dict[str, Any] = {
            "event": "detected",
            "fault": "crash",
            "rank": err.rank,
            "backend": engine.name,
        }
        if phase is not None:
            detected["phase"] = phase
        if stage is not None:
            detected["stage"] = stage
        if policy.allows_respawn:
            # Every rank replays together with the fault plan disarmed:
            # from the common checkpointed stage under checkpoint-resume,
            # from stage 0 otherwise (``resume`` is ``None`` also when no
            # stage was checkpointed everywhere).  The exchanges are
            # lockstep pairwise sendrecvs, so only an all-ranks replay is
            # protocol-safe for every crash point; its exchange sequence
            # is the fault-free one, and pixels and byte/message counters
            # land bit-identical to a clean run on every backend.
            resume = store.resumable_stage(cfg.num_ranks) if store is not None else None
            recovery = {
                "event": "recovery",
                "policy": policy.name,
                "action": policy.name,
                "failed_ranks": failed,
                "resume_stage": resume,
                "backend": engine.name,
            }
            return dict(
                runtime=RecoveryRuntime(store, resume),
                recovered=True,
                extra_events=list(err.events) + [detected, recovery],
            )
        degradable = (
            policy.allows_degrade
            and (
                phase in ("render", "composite")
                or (phase is None and stage is not None and stage != GATHER_STAGE)
            )
            and isinstance(plan, PartitionPlan)
            and plan.num_ranks >= 2
        )
        if not degradable:
            raise err
        # Re-fold onto the survivors and rerun the pipeline clean on the
        # smaller folded machine.  Works for render- *and* composite-phase
        # losses: the survivors re-render their merged blocks either way.
        compositor = make_compositor(cfg.method, **cfg.method_options)
        pairs_of = getattr(compositor, "refold_pairs", None)
        pairs = pairs_of(plan.num_ranks) if pairs_of is not None else None
        folded, rank_map = refold_survivors(plan, failed, pairs=pairs)
        events = [
            detected,
            {
                "event": "recovery",
                "policy": "degrade",
                "action": "degrade",
                "failed_ranks": failed,
                "backend": engine.name,
            },
            {
                "event": "degraded",
                "failed_ranks": failed,
                "survivor_ranks": rank_map,
                "core_ranks": folded.core_ranks,
            },
        ]
        return dict(
            plan=folded,
            degraded=True,
            failed_ranks=failed,
            extra_events=list(err.events) + events,
        )

    def _build_result(
        self,
        engine: Backend,
        scene,
        record: RunResult,
        *,
        degraded: bool = False,
        failed_ranks: Optional[list[int]] = None,
        extra_events: Optional[list[dict]] = None,
        recovered: bool = False,
        schedule_policy=None,
        progress: Optional[ProgressFeed] = None,
    ) -> SystemResult:
        cfg = self.config
        returns, record.returns = record.returns, []
        final = returns[0][2]
        assert final is not None

        meta = {
            "dataset": cfg.dataset,
            "method": cfg.method,
            "num_ranks": cfg.num_ranks,
            "image_size": cfg.image_size,
            "machine": cfg.machine.name,
            "topology": cfg.topology,
            "renderer": "raycast",
            "degraded": degraded,
            "recovered": recovered,
            "outcome": run_outcome(degraded=degraded, recovered=recovered),
            "failed_ranks": list(failed_ranks or []),
        }
        if progress is not None:
            # The assembled display image, flagged with the declared
            # outcome: a degraded partial frame streams marked, never
            # silently.  Stamped at the run's makespan.
            progress.emit_final(
                image=final,
                degraded=degraded,
                outcome=meta["outcome"],
                t=max((rs.elapsed_time for rs in record.rank_stats), default=0.0),
            )
        meta.update(schedule_meta(schedule_policy))
        meta.update(progress_meta(progress))
        record.events.extend(extra_events or ())
        meta.update(tile_latency_metrics(record.events))
        record.meta = meta
        compositing = CompositingRun(
            compositor=compositor_for(cfg.method, scene.plan, **cfg.method_options),
            outcomes=[ret[1] for ret in returns],
            stats=record.without_stage(GATHER_STAGE),
        )
        return SystemResult(
            config=cfg,
            plan=scene.plan,
            camera=scene.camera,
            subimages=[ret[0] for ret in returns],
            compositing=compositing,
            final_image=final,
            backend_name=engine.name,
            timeline=record,
            degraded=degraded,
            failed_ranks=list(failed_ranks or []),
            recovered=recovered,
        )
