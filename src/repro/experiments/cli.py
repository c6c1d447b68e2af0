"""Command-line entry point: ``python -m repro.experiments <name>``.

Subcommands regenerate each paper artifact::

    table1    Table 1   (384x384, 4 methods x 4 datasets x P=2..64)
    table2    Table 2   (768x768, BSBR/BSLC/BSBRC)
    figures   Figures 8-11 (ASCII plots)  [--figure N for just one]
    fig7      Figure 7  (render the test samples to PGM)
    mmax      Equation (9) M_max ordering check
    rotation  §3.2 empty-bounding-rectangle viewpoint analysis
    compare   fidelity metrics vs the paper's published Tables 1-2
    sparsity  dataset sparsity profiles (the structure behind §3)
    stages    per-stage breakdown of one run (the §3 per-stage view)
    methods   list every addressable compositing method with a one-line
              description (registry names plus schedule:codec combos)
    run       one full pipeline run on a chosen backend
              (``--backend {sim,mp}``, ``--trace-out timeline.json``;
              fault injection via ``--fault-plan plan.json`` with
              ``--comm-timeout``; recovery via ``--recovery
              {abort,degrade,respawn,checkpoint-resume}``; interconnect
              topology via ``--topology fat-tree:radix=16,capacity=2.0``)
    scale     at-scale crossover study: the paper's method ranking
              replayed at P=64 and extended to P=256/1024 on synthetic
              sparse workloads (event-driven simulator core)
    serve     file-spool render service: multi-session jobs over a
              bounded worker pool, per-session QoS on the recovery
              lattice, progressive ``repro.serve-event/4`` frames
    submit    drop one job (config deltas + optional fault plan) into
              a serve spool; ``--wait`` polls for the result

``stages`` and ``run`` take ``--method`` specs like ``bsbrc``,
``radix-k:rect-rle``, or ``tile-routed:rect`` plus the method options
``--radix 4,4``, ``--section N``, and ``--tile SIZE``.

``--quick`` shrinks the volumes, the image, and the processor sweep so
every command finishes in seconds (useful for smoke tests); results are
written to ``--out`` (default ``results/``).
"""

from __future__ import annotations

import argparse
import os
import sys

from ..cluster.backend import BACKENDS
from ..cluster.recovery import RECOVERY_POLICIES
from ..compositing.registry import available_methods, method_catalog
from .compare import compare_to_paper, format_fidelity
from .figures import format_figure, render_figure7, run_figures
from .harness import save_rows
from .mmax import format_mmax, run_mmax
from .rotation import format_rotation, run_rotation
from .tables import format_table1, format_table2, run_table1, run_table2

__all__ = ["main", "build_parser"]

_QUICK = {
    "rank_counts": (2, 4, 8),
    "volume_shape": (64, 64, 28),
    "image_size": 96,
}


def _method_help() -> str:
    """``--method`` help text, generated from the live registry."""
    return (
        "compositing method: a registry name or a schedule:codec combo; "
        "one of " + ", ".join(available_methods())
        + " (see the 'methods' subcommand for descriptions)"
    )


def _add_method_options(sub: argparse.ArgumentParser, default: str = "bsbrc") -> None:
    sub.add_argument("--method", default=default, help=_method_help())
    sub.add_argument(
        "--radix",
        default=None,
        help="radix-k round sizes as comma-separated powers of two, e.g. "
             "'4,4' (only meaningful with radix-k schedules; adapts to "
             "smaller P by clamping/repeating the last factor)",
    )
    sub.add_argument(
        "--section",
        type=int,
        default=None,
        help="BSLC section length in pixels (sectioned schedules only)",
    )
    sub.add_argument(
        "--tile",
        type=int,
        default=None,
        help="tile edge length in pixels (tile-routed methods only)",
    )


def _method_options_from(args) -> dict:
    """Collect compositor options from parsed CLI flags."""
    from ..compositing.schedule import parse_radix

    options: dict = {}
    if getattr(args, "radix", None):
        options["radix"] = parse_radix(args.radix)
    if getattr(args, "section", None) is not None:
        options["section"] = args.section
    if getattr(args, "tile", None) is not None:
        options["tile"] = args.tile
    return options


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's tables and figures on the simulated SP2.",
    )
    parser.add_argument("--quick", action="store_true", help="small fast variant")
    parser.add_argument("--out", default="results", help="output directory")
    parser.add_argument("--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("table1")
    sub.add_parser("table2")
    figures = sub.add_parser("figures")
    figures.add_argument("--figure", type=int, choices=(8, 9, 10, 11), default=None)
    sub.add_parser("fig7")
    sub.add_parser("mmax")
    rotation = sub.add_parser("rotation")
    rotation.add_argument("--dataset", default="engine_low")
    sub.add_parser("compare")
    sub.add_parser("sparsity")
    stages = sub.add_parser("stages")
    stages.add_argument("--dataset", default="engine_high")
    _add_method_options(stages)
    stages.add_argument("--ranks", type=int, default=16)
    sub.add_parser(
        "methods", help="list every addressable compositing method"
    )
    run = sub.add_parser(
        "run", help="one full pipeline run on a chosen execution backend"
    )
    run.add_argument("--dataset", default="engine_low")
    _add_method_options(run)
    run.add_argument("--ranks", type=int, default=8)
    run.add_argument("--image-size", type=int, default=384)
    run.add_argument("--machine", default="sp2",
                     help="machine-model preset (simulator pricing)")
    run.add_argument("--backend", default="sim", choices=sorted(BACKENDS),
                     help="execution substrate: sim (simulator, modelled "
                          "time) or mp (multiprocessing, wall clock)")
    run.add_argument("--trace-out", default=None,
                     help="write the unified run-timeline JSON here")
    run.add_argument("--out-image", default=None,
                     help="write the final image as PGM here")
    run.add_argument("--fault-plan", default=None,
                     help="JSON fault plan (repro.fault-plan/1) to inject: "
                          "crashes, drops, delays, corruption, stragglers")
    run.add_argument("--comm-timeout", type=float, default=None,
                     help="per-receive deadlock timeout in seconds on real "
                          "transports (default: backend's 60s)")
    run.add_argument("--recovery", default=None,
                     choices=RECOVERY_POLICIES,
                     help="recovery policy when a rank is lost: abort "
                          "(re-raise), degrade (re-fold onto survivors), "
                          "respawn (replay every rank from stage 0), "
                          "checkpoint-resume (replay every rank from the "
                          "last stage all ranks checkpointed); both replays "
                          "are lossless on sim and mp (default: degrade)")
    _add_topology_options(run)
    explore = sub.add_parser(
        "explore",
        help="schedule exploration: run many interleavings of one "
             "scenario on the simulator, classify each against the "
             "deterministic baseline, save replayable failing traces",
    )
    _add_method_options(explore, default="binary-swap:raw")
    explore.add_argument("--ranks", type=int, default=8)
    explore.add_argument("--image-size", type=int, default=32,
                         help="scenario image side in pixels (default: 32 — "
                              "exploration runs the pipeline many times)")
    explore.add_argument("--dataset", default="engine_low")
    explore.add_argument("--interleavings", type=int, default=16,
                         help="how many interleavings to run (default: 16)")
    explore.add_argument("--policy", default="random",
                         help="exploration policy: deterministic | random[:SEED] "
                              "| adversarial[:MODE] | dfs "
                              "(modes: starve-low, starve-high, "
                              "delay-longest, lifo)")
    explore.add_argument("--seed", type=int, default=0,
                         help="base seed for random walks (walk i uses seed+i)")
    explore.add_argument("--fault-plan", default=None,
                         help="JSON fault plan (repro.fault-plan/1) to arm; "
                              "'default' injects the canonical crash+delay "
                              "plan; omit for a clean scenario")
    explore.add_argument("--trace-dir", default=None,
                         help="directory for repro.sched-trace/1 decision "
                              "traces (failing interleavings always save "
                              "one here; default: <out>/sched-traces)")
    explore.add_argument("--keep-all-traces", action="store_true",
                         help="save traces of passing interleavings too")
    explore.add_argument("--event-budget", type=int, default=None,
                         help="per-interleaving simulator-step cap before a "
                              "run is classified as livelock")
    explore.add_argument("--replay-trace", default=None, metavar="TRACE",
                         help="replay one saved decision trace bit-for-bit "
                              "instead of exploring (the trace embeds its "
                              "scenario; other scenario flags are ignored)")
    serve = sub.add_parser(
        "serve",
        help="run a file-spool render service: claims repro.serve-job/1 "
             "requests from <spool>/jobs/, multiplexes sessions over a "
             "bounded worker pool with per-session QoS, and streams "
             "repro.serve-event/4 progressive frames to <spool>/out/",
    )
    serve.add_argument("--spool", required=True,
                       help="spool directory (jobs/, work/, out/ created)")
    serve.add_argument("--dataset", default="engine_low",
                       help="base-config dataset jobs derive from")
    _add_method_options(serve)
    serve.add_argument("--ranks", type=int, default=8)
    serve.add_argument("--image-size", type=int, default=384)
    serve.add_argument("--machine", default="sp2",
                       help="machine-model preset (simulator pricing)")
    serve.add_argument("--max-workers", type=int, default=2,
                       help="bound on concurrently rendering jobs "
                            "(the shared worker pool size; default: 2)")
    serve.add_argument("--max-jobs", type=int, default=None,
                       help="exit after serving this many jobs")
    serve.add_argument("--idle-timeout", type=float, default=None,
                       help="exit after this many seconds with no pending "
                            "or in-flight work (default: serve forever; "
                            "SIGTERM drains gracefully either way)")
    serve.add_argument("--backend", default="sim", choices=sorted(BACKENDS),
                       help="execution substrate for the service's "
                            "sessions: sim or mp (default: sim)")
    serve.add_argument("--queue-limit", type=int, default=None,
                       help="bound on jobs admitted but not yet running "
                            "(default: unbounded)")
    serve.add_argument("--shed-policy", default="block",
                       help="full-queue policy: block | reject | "
                            "shed-lowest-qos (default: block)")
    serve.add_argument("--lease-s", type=float, default=15.0,
                       help="claim-lease lifetime; a work item whose "
                            "lease is older than this is reclaimed by "
                            "any server on the spool (default: 15)")
    serve.add_argument("--max-attempts", type=int, default=3,
                       help="expired-lease reclaims before a job is "
                            "buried with a failure result (default: 3)")
    submit = sub.add_parser(
        "submit",
        help="drop one render job into a serve spool (config deltas "
             "against the server's base config); --wait polls for the "
             "result document and prints a summary",
    )
    submit.add_argument("--spool", required=True, help="spool directory")
    submit.add_argument("--session", default="default",
                        help="logical client session name (one warm "
                             "backend + job ordering per session)")
    submit.add_argument("--qos", default=None,
                        help="session quality class on the recovery "
                             "lattice: strict | degrade | available | "
                             "lossless (default: degrade)")
    submit.add_argument("--method", default=None,
                        help="override the server's compositing method")
    submit.add_argument("--dataset", default=None,
                        help="override the server's dataset")
    submit.add_argument("--ranks", type=int, default=None,
                        help="override the server's rank count")
    submit.add_argument("--image-size", type=int, default=None,
                        help="override the server's image size")
    submit.add_argument("--rot-x", type=float, default=None,
                        help="camera rotation override (degrees)")
    submit.add_argument("--rot-y", type=float, default=None,
                        help="camera rotation override (degrees)")
    submit.add_argument("--fault-plan", default=None,
                        help="JSON fault plan (repro.fault-plan/1) to "
                             "inject into this job")
    submit.add_argument("--deadline-s", type=float, default=None,
                        help="wall-clock budget from server admission; "
                             "overrun jobs fail with DeadlineExceededError")
    submit.add_argument("--wait", action="store_true",
                        help="poll the spool until the result lands")
    submit.add_argument("--timeout", type=float, default=120.0,
                        help="--wait polling deadline in seconds")
    scale = sub.add_parser(
        "scale",
        help="at-scale crossover study (P=64/256/1024, synthetic workloads)",
    )
    scale.add_argument("--ranks", default=None,
                       help="comma-separated processor counts "
                            "(default: 64,256,1024; --quick: 16,64)")
    scale.add_argument("--image-size", type=int, default=96,
                       help="synthetic screen side in pixels (default: 96)")
    scale.add_argument("--machine", default="sp2",
                       help="machine-model preset (simulator pricing)")
    _add_topology_options(scale)
    sub.add_parser("all")
    return parser


def _add_topology_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--topology", default="flat",
                     help="simulated interconnect: 'flat' (the paper's "
                          "contention-free link), or a spec like "
                          "'fat-tree:radix=16', 'torus:dims=32x32', "
                          "'dragonfly:global_capacity=0.5'; 'capacity=X' "
                          "scales shared-link bandwidth ('inf' disables "
                          "contention)")


def _quick_kwargs(args) -> dict:
    if not args.quick:
        return {}
    return dict(_QUICK)


def _emit(args, name: str, text: str, rows=None) -> None:
    os.makedirs(args.out, exist_ok=True)
    print(text)
    path = os.path.join(args.out, f"{name}.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    if rows is not None:
        save_rows(rows, os.path.join(args.out, f"{name}.json"))
    print(f"\n[written to {path}]")


def _run_one(args, command: str) -> None:
    quick = _quick_kwargs(args)
    if command == "table1":
        rows = run_table1(verbose=args.verbose, **quick)
        _emit(args, "table1", format_table1(rows), rows)
    elif command == "table2":
        quick2 = dict(quick)
        if args.quick:
            quick2["image_size"] = 192
        rows = run_table2(verbose=args.verbose, **quick2)
        _emit(args, "table2", format_table2(rows), rows)
    elif command == "figures":
        rows = run_figures(verbose=args.verbose, **quick)
        wanted = [args.figure] if getattr(args, "figure", None) else [8, 9, 10, 11]
        text = "\n\n".join(format_figure(fig, rows) for fig in wanted)
        _emit(args, "figures", text, rows)
    elif command == "fig7":
        size = quick.get("image_size", 384)
        shape = quick.get("volume_shape")
        paths = render_figure7(args.out, image_size=size, volume_shape=shape)
        print("Figure 7 sample images written:")
        for path in paths:
            print(f"  {path}")
    elif command == "mmax":
        report = run_mmax(verbose=args.verbose, **quick)
        _emit(args, "mmax", format_mmax(report), report.rows)
    elif command == "compare":
        if args.quick:
            raise SystemExit(
                "compare needs the full-scale grids (the paper's numbers "
                "are at 384/768 px); run without --quick"
            )
        rows1 = run_table1(verbose=args.verbose)
        rows2 = run_table2(verbose=args.verbose)
        text = (
            format_fidelity(compare_to_paper(rows1))
            + "\n\n"
            + format_fidelity(compare_to_paper(rows2))
        )
        _emit(args, "compare", text)
    elif command == "sparsity":
        from ..analysis.sparsity import sparsity_table
        from ..render.camera import Camera
        from ..render.raycast import render_full
        from ..volume.datasets import PAPER_DATASETS, make_dataset

        size = quick.get("image_size", 384)
        shape = quick.get("volume_shape")
        labels, images = [], []
        for dataset in PAPER_DATASETS:
            volume, transfer = make_dataset(dataset, shape)
            camera = Camera(
                width=size, height=size, volume_shape=volume.shape,
                rot_x=20.0, rot_y=30.0,
            )
            labels.append(dataset)
            images.append(render_full(volume, transfer, camera))
        _emit(
            args,
            "sparsity",
            sparsity_table(
                labels, images,
                title=f"Dataset sparsity profiles ({size}x{size} full renders)",
            ),
        )
    elif command == "stages":
        from .stages import format_stage_breakdown, run_stage_breakdown

        kwargs = dict(
            dataset=getattr(args, "dataset", "engine_high"),
            method=getattr(args, "method", "bsbrc"),
            num_ranks=getattr(args, "ranks", 16),
        )
        method_options = _method_options_from(args)
        if method_options:
            kwargs["method_options"] = method_options
        if args.quick:
            kwargs.update(
                num_ranks=min(kwargs["num_ranks"], 8),
                image_size=_QUICK["image_size"],
                volume_shape=_QUICK["volume_shape"],
            )
        breakdown = run_stage_breakdown(**kwargs)
        _emit(
            args,
            "stages",
            format_stage_breakdown(
                breakdown,
                title=(
                    f"Per-stage breakdown: {kwargs['method']} on "
                    f"{kwargs['dataset']}, P={kwargs['num_ranks']}"
                ),
            ),
        )
    elif command == "run":
        from ..cluster.faults import FaultPlan
        from ..pipeline.config import RunConfig
        from ..pipeline.system import SortLastSystem

        from ..errors import ConfigurationError

        try:
            cfg = RunConfig(
                dataset=getattr(args, "dataset", "engine_low"),
                method=getattr(args, "method", "bsbrc"),
                method_options=_method_options_from(args),
                num_ranks=getattr(args, "ranks", 8),
                image_size=(
                    _QUICK["image_size"] if args.quick
                    else getattr(args, "image_size", 384)
                ),
                volume_shape=_QUICK["volume_shape"] if args.quick else None,
                machine=getattr(args, "machine", "sp2"),
                backend=getattr(args, "backend", "sim"),
                comm_timeout=getattr(args, "comm_timeout", None),
                recovery=getattr(args, "recovery", None) or "degrade",
                topology=getattr(args, "topology", "flat"),
            )
        except ConfigurationError as exc:
            raise SystemExit(str(exc)) from exc
        fault_plan = None
        if getattr(args, "fault_plan", None):
            fault_plan = FaultPlan.load(args.fault_plan)
        result = SortLastSystem(cfg).run(
            trace=cfg.backend == "sim",
            fault_plan=fault_plan,
        )
        stats = result.compositing.stats
        clock = result.timeline.clock
        lines = [
            f"Pipeline run: {cfg.label()} on backend={result.backend_name}",
            f"  compositing T_comp  = {stats.t_comp * 1e3:9.3f} ms ({clock})",
            f"  compositing T_comm  = {stats.t_comm * 1e3:9.3f} ms ({clock})",
            f"  compositing M_max   = {stats.mmax_bytes} bytes",
            f"  makespan            = {stats.makespan * 1e3:9.3f} ms",
        ]
        if result.degraded:
            lines.append(
                f"  DEGRADED: lost rank(s) {result.failed_ranks}; re-folded "
                f"onto {result.plan.num_ranks} survivors"
            )
        if result.recovered:
            lines.append(
                "  RECOVERED: failure absorbed losslessly "
                "(lockstep replay); full-fidelity image"
            )
        faults = [
            ev for ev in result.timeline.events
            if ev.get("event") in ("injected", "detected", "recovery", "degraded")
        ]
        if faults:
            lines.append(f"  fault events        = {len(faults)}")
            for ev in faults[:8]:
                lines.append(f"    {ev}")
        text = "\n".join(lines)
        _emit(args, "run", text)
        if getattr(args, "trace_out", None):
            result.timeline.save(args.trace_out)
            print(f"[timeline written to {args.trace_out}]")
        if getattr(args, "out_image", None):
            from ..render.reference import luminance
            from ..volume.io import to_gray8, write_pgm

            write_pgm(args.out_image, to_gray8(luminance(result.final_image), gain=2.0))
            print(f"[image written to {args.out_image}]")
    elif command == "explore":
        from ..cluster.explore import (
            DEFAULT_EVENT_BUDGET,
            Explorer,
            default_fault_plan,
        )
        from ..cluster.faults import FaultPlan
        from ..errors import ConfigurationError
        from ..pipeline.config import RunConfig

        budget = getattr(args, "event_budget", None) or DEFAULT_EVENT_BUDGET
        trace_dir = getattr(args, "trace_dir", None) or os.path.join(
            args.out, "sched-traces"
        )
        replay_path = getattr(args, "replay_trace", None)
        try:
            if replay_path:
                explorer = Explorer.from_trace(
                    replay_path,
                    trace_dir=trace_dir,
                    event_budget=budget,
                )
                outcome = explorer.replay(replay_path)
                lines = [
                    f"Replayed schedule trace {replay_path}",
                    f"  scenario       = {explorer.label()}",
                    f"  policy         = {outcome.policy}",
                    f"  classification = {outcome.classification}",
                    f"  decisions      = {outcome.decisions}",
                ]
                if outcome.detail:
                    lines.append(f"  detail         = {outcome.detail}")
                _emit(args, "explore_replay", "\n".join(lines))
                if outcome.classification == "replay-divergence":
                    raise SystemExit(1)
                return
            ranks = getattr(args, "ranks", 8)
            plan_arg = getattr(args, "fault_plan", None)
            if plan_arg == "default":
                fault_plan = default_fault_plan(ranks)
            elif plan_arg:
                fault_plan = FaultPlan.load(plan_arg)
            else:
                fault_plan = None
            config = RunConfig(
                method=getattr(args, "method", "binary-swap:raw"),
                num_ranks=ranks,
                dataset=getattr(args, "dataset", "engine_low"),
                image_size=(
                    _QUICK["image_size"] if args.quick
                    else getattr(args, "image_size", 32)
                ),
                volume_shape=(32, 32, 16),
                method_options=_method_options_from(args),
            )
            explorer = Explorer(
                config,
                fault_plan,
                trace_dir=trace_dir,
                event_budget=budget,
                keep_all=getattr(args, "keep_all_traces", False),
            )
            report = explorer.run(
                getattr(args, "policy", "random"),
                getattr(args, "interleavings", 16),
                seed=getattr(args, "seed", 0),
            )
        except ConfigurationError as exc:
            raise SystemExit(str(exc)) from exc
        counts = report.counts()
        lines = [
            f"Schedule exploration: {explorer.label()} "
            f"({len(report.results)} interleavings, policy "
            f"{getattr(args, 'policy', 'random')})",
            "  " + ", ".join(f"{k}={v}" for k, v in sorted(counts.items())),
        ]
        for res in report.failures:
            lines.append(
                f"  FAIL #{res.index} [{res.policy}] {res.classification}: "
                f"{res.detail}"
            )
            if res.trace_path:
                lines.append(f"    replay with --replay-trace {res.trace_path}")
        lines.append("  result: " + ("OK" if report.ok else "FAILING"))
        _emit(args, "explore", "\n".join(lines))
        os.makedirs(args.out, exist_ok=True)
        report_path = os.path.join(args.out, "explore.json")
        report.save(report_path)
        print(f"[report written to {report_path}]")
        if not report.ok:
            raise SystemExit(1)
    elif command == "serve":
        from ..errors import ConfigurationError
        from ..pipeline.config import RunConfig
        from ..serving import serve as serve_spool

        try:
            cfg = RunConfig(
                dataset=getattr(args, "dataset", "engine_low"),
                method=getattr(args, "method", "bsbrc"),
                method_options=_method_options_from(args),
                num_ranks=getattr(args, "ranks", 8),
                image_size=(
                    _QUICK["image_size"] if args.quick
                    else getattr(args, "image_size", 384)
                ),
                volume_shape=_QUICK["volume_shape"] if args.quick else None,
                machine=getattr(args, "machine", "sp2"),
                backend=getattr(args, "backend", "sim"),
            )
        except ConfigurationError as exc:
            raise SystemExit(str(exc)) from exc
        print(
            f"Serving {cfg.label()} from spool {args.spool} "
            f"(workers={args.max_workers}, max_jobs={args.max_jobs}, "
            f"idle_timeout={args.idle_timeout}, "
            f"queue_limit={getattr(args, 'queue_limit', None)}, "
            f"shed_policy={getattr(args, 'shed_policy', 'block')})"
        )
        try:
            served = serve_spool(
                args.spool,
                cfg,
                max_workers=getattr(args, "max_workers", 2),
                max_jobs=getattr(args, "max_jobs", None),
                idle_timeout=getattr(args, "idle_timeout", None),
                queue_limit=getattr(args, "queue_limit", None),
                shed_policy=getattr(args, "shed_policy", "block"),
                lease_s=getattr(args, "lease_s", 15.0),
                max_attempts=getattr(args, "max_attempts", 3),
            )
        except ConfigurationError as exc:
            raise SystemExit(str(exc)) from exc
        print(f"[served {served} job(s)]")
    elif command == "submit":
        from ..cluster.faults import FaultPlan
        from ..errors import ConfigurationError
        from ..serving import DEFAULT_QOS, submit_job, wait_for_result

        deltas: dict = {}
        for key in ("method", "dataset", "rot_x", "rot_y"):
            value = getattr(args, key, None)
            if value is not None:
                deltas[key] = value
        if getattr(args, "ranks", None) is not None:
            deltas["num_ranks"] = args.ranks
        if getattr(args, "image_size", None) is not None:
            deltas["image_size"] = args.image_size
        fault_plan = None
        if getattr(args, "fault_plan", None):
            fault_plan = FaultPlan.load(args.fault_plan)
        try:
            job_id = submit_job(
                args.spool,
                session=getattr(args, "session", "default"),
                qos=getattr(args, "qos", None) or DEFAULT_QOS,
                deltas=deltas,
                fault_plan=fault_plan,
                deadline_s=getattr(args, "deadline_s", None),
            )
        except ConfigurationError as exc:
            raise SystemExit(str(exc)) from exc
        print(f"[submitted {job_id} to {args.spool}]")
        if getattr(args, "wait", False):
            timeout = getattr(args, "timeout", 120.0)
            try:
                doc = wait_for_result(args.spool, job_id, timeout=timeout)
            except TimeoutError:
                raise SystemExit(
                    f"{job_id}: no result within {timeout}s — the spool "
                    "may have no server attached, or the render is still "
                    "running (re-poll with a larger --timeout)"
                ) from None
            if doc.get("ok"):
                print(
                    f"{job_id}: outcome={doc.get('outcome')} "
                    f"degraded={doc.get('degraded')} "
                    f"coverage={doc.get('coverage')} "
                    f"events={doc.get('events')} image={doc.get('image')}"
                )
            else:
                raise SystemExit(
                    f"{job_id} failed: {doc.get('error')}: {doc.get('detail')}"
                )
    elif command == "scale":
        from ..cluster.model import PRESETS, make_network
        from .scale import format_scale, run_scale_crossover

        machine = PRESETS.get(getattr(args, "machine", "sp2"))
        if machine is None:
            raise SystemExit(f"unknown machine preset {args.machine!r}")
        if getattr(args, "ranks", None):
            rank_counts = tuple(int(p) for p in args.ranks.split(","))
        elif args.quick:
            rank_counts = (16, 64)
        else:
            rank_counts = (64, 256, 1024)
        topology = getattr(args, "topology", "flat")
        network = None
        if topology.partition(":")[0] != "flat":
            from ..errors import ConfigurationError

            try:
                network = make_network(topology, machine)
            except ConfigurationError as exc:
                raise SystemExit(str(exc)) from exc
        rows = run_scale_crossover(
            rank_counts=rank_counts,
            image_size=getattr(args, "image_size", 96),
            machine=machine,
            network=network,
            verbose=args.verbose,
        )
        _emit(args, "crossover_scale", format_scale(rows), rows)
    elif command == "methods":
        catalog = method_catalog()
        width = max(len(name) for name in catalog)
        lines = ["Available compositing methods (name or schedule:codec):", ""]
        for name, desc in catalog.items():
            lines.append(f"  {name:<{width}}  {desc}" if desc else f"  {name}")
        print("\n".join(lines))
    elif command == "rotation":
        kwargs = {}
        if args.quick:
            kwargs = dict(
                rank_counts=(4, 8),
                volume_shape=_QUICK["volume_shape"],
                image_size=_QUICK["image_size"],
            )
        observations = run_rotation(dataset=getattr(args, "dataset", "engine_low"), **kwargs)
        _emit(args, "rotation", format_rotation(observations))
    else:
        raise SystemExit(f"unknown command {command!r}")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    commands = (
        ["table1", "table2", "figures", "fig7", "mmax", "rotation",
         "sparsity", "stages", "scale"]
        + ([] if args.quick else ["compare"])
        if args.command == "all"
        else [args.command]
    )
    for command in commands:
        if args.command == "all":
            print(f"\n========== {command} ==========")
        if command == "rotation" and not hasattr(args, "dataset"):
            args.dataset = "engine_low"
        if command == "figures" and not hasattr(args, "figure"):
            args.figure = None
        _run_one(args, command)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
