"""Measurement plumbing of the end-to-end benchmark (standard library only).

Everything here is independent of the program under test: statistics,
the span model of the traced run, the metric tables, the subprocess
protocol that runs one *block* of a workload in a fresh interpreter, and
the reports (`--check`, the A/A agreement table).  The workloads
themselves live in ``workloads.py`` and the per-layer probes in
``probes.py``; both import ``repro`` lazily, so this module (and the
self-tests) load without it.
"""

from __future__ import annotations

import json
import os
import platform
import re
import shutil
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Any, Iterator, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
SRC_DIR = os.path.join(REPO_ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
BENCHMARK_JSON = os.path.join(REPO_ROOT, "BENCHMARK.json")
BASELINE_JSON = os.path.join(HERE, "baseline.json")
GOLDEN_JSON = os.path.join(HERE, "golden.json")
AA_JSON = os.path.join(HERE, "AA.json")
RUN_PY = os.path.join(HERE, "run.py")

#: Blocks (fresh interpreters) per workload per set; one ``setup_s``
#: sample each, so three is the fewest that has a median.
BLOCKS = 3
#: The seed whose digests and modelled values ``golden.json`` pins.
DEFAULT_SEED = 0
#: Ops per block and client (warm-up included) checked against golden
#: data and averaged into ``modelled.ms`` — a fixed count, so the value
#: repeats exactly however many timed ops the host manages.
GOLDEN_OPS = 3
#: A p90 needs ten samples beyond it (choosing-metrics §1).
P90_MIN_SAMPLES = 100
#: An op that has not finished after this long is a failed op.
OP_TIMEOUT_S = 30.0
#: The warm-up op gets longer: it builds the scene, and on serve_spool it
#: waits for the server to import, build its own scene and start polling.
WARMUP_TIMEOUT_S = 50.0
#: Allowance for spawn + import + scene build + warm-up of one block.
SETUP_TIMEOUT_S = 60.0
#: Wall seconds one driver-form run may take, whatever the host does (the
#: driver allows 180): blocks are cut short, then skipped, to stay inside.
RUN_BUDGET_S = 160.0
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

LAYERS = (
    "volume", "render", "compositing", "cluster", "pipeline",
    "serving.service", "serving.spool", "harness",
)


# ---- statistics -------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (``q`` in [0, 100])."""
    if not values:
        raise ValueError("percentile of an empty sample")
    data = sorted(values)
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def p90_or_none(values: Sequence[float]) -> Optional[float]:
    """The p90, or ``None`` below :data:`P90_MIN_SAMPLES` samples."""
    if len(values) < P90_MIN_SAMPLES:
        return None
    return percentile(values, 90.0)


def rel_spread(values: Sequence[float]) -> float:
    """(max - min) / median of a few values (block medians)."""
    if len(values) < 2:
        return 0.0
    mid = median(values)
    return (max(values) - min(values)) / mid if mid else 0.0



# ---- spans ------------------------------------------------------------------
@dataclass
class Span:
    """One timed call into a layer, recorded from the benchmark's side.

    ``parent`` names the span whose work this one is part of.  A child is
    either nested in time (a call made inside the parent) or an *outside
    replay* of part of the parent's work (the same public function called
    again on the same inputs after the parent returned) — the program has
    no spans of its own yet, so replay is how an opaque call is split.
    """

    id: int
    op_id: str
    layer: str
    name: str
    parent: Optional[int]
    start: float
    end: float

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


class Tracer:
    """In-memory span recorder; written out once, when the block ends."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}

    def add(self, op_id: str, layer: str, name: str, start: float, end: float,
            parent: Optional[int] = None) -> int:
        span = Span(len(self.spans), op_id, layer, name, parent, start, end)
        self.spans.append(span)
        return span.id

    @contextmanager
    def span(self, op_id: str, layer: str, name: str,
             parent: Optional[int] = None) -> Iterator[int]:
        """Time the body; yields the span id so children can name it."""
        sid = self.add(op_id, layer, name, 0.0, 0.0, parent)
        span = self.spans[sid]
        span.start = time.perf_counter()
        try:
            yield sid
        finally:
            span.end = time.perf_counter()

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + value


def self_times_ms(spans: Sequence[Span]) -> dict[int, float]:
    """Self time per span: its duration minus its children's durations.

    Durations, not interval intersection: a replayed child lies outside
    its parent's interval by construction, a nested one inside, and one
    rule has to serve both.  Children that together outlast the parent
    (replay ran slower than the original) leave it zero, never negative.
    """
    child_ms: dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            child_ms[span.parent] = child_ms.get(span.parent, 0.0) + span.ms
    return {s.id: max(0.0, s.ms - child_ms.get(s.id, 0.0)) for s in spans}


def layer_self_ms(spans: Sequence[Span]) -> dict[str, float]:
    """Total self time per layer over ``spans``."""
    own = self_times_ms(spans)
    out: dict[str, float] = {}
    for span in spans:
        out[span.layer] = out.get(span.layer, 0.0) + own[span.id]
    return out


def attribution(spans: Sequence[Span]) -> dict[str, Any]:
    """Per-op layer attribution of a traced block.

    Returns the median (over traced ops) share of the op's root span
    that each layer's self time accounts for, and ``coverage`` — the
    share *not* left on the ``harness`` layer, i.e. attributed to a
    layer of the program.
    """
    by_op: dict[str, list[Span]] = {}
    for span in spans:
        by_op.setdefault(span.op_id, []).append(span)
    shares: dict[str, list[float]] = {layer: [] for layer in LAYERS}
    coverage: list[float] = []
    for op_spans in by_op.values():
        roots = [s for s in op_spans if s.parent is None]
        if len(roots) != 1 or roots[0].ms <= 0.0:
            continue
        root_ms = roots[0].ms
        per_layer = layer_self_ms(op_spans)
        for layer in LAYERS:
            shares[layer].append(per_layer.get(layer, 0.0) / root_ms)
        attributed = sum(v for k, v in per_layer.items() if k != "harness")
        coverage.append(attributed / root_ms)
    return {
        "ops": len(coverage),
        "self_share": {k: (median(v) if v else 0.0) for k, v in shares.items()},
        "coverage": median(coverage) if coverage else 0.0,
    }


# ---- metric tables ----------------------------------------------------------
@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: Share of the stored median a fresh median may be worse by; ``0.0``
    #: with ``exact`` means any difference is a regression.
    bound: Optional[float] = None
    exact: bool = False
    #: Workloads that report it (``None`` = all).
    workloads: Optional[tuple[str, ...]] = None
    #: Which end-to-end metric on which workload it should move.
    moves: str = ""
    #: Listed under ``end_to_end`` in ``BENCHMARK.json``.
    driver: bool = False


_P90_WORKLOADS = ("oneshot_sparse", "serve_inproc", "serve_spool")

#: The suite's end-to-end table.  ``driver=True`` rows are the ones every
#: workload reports on every run and that are never zero, which is what
#: ``BENCHMARK.json`` may list; the rest are printed, stored and checked
#: by this harness only (see README "What BENCHMARK.json cannot hold").
#: The timing bounds are three times the widest spread ten differently
#: seeded 10-second runs showed on this shared 2-core host (serve_inproc,
#: 10-13%), capped at the contract's 0.25 (README "Bounds").
E2E: tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25, driver=True),
    Metric("op_ms_p50", "ms", "lower", 0.25, driver=True),
    Metric("op_ms_p90", "ms", "lower", 0.25, workloads=_P90_WORKLOADS),
    Metric("ops_per_s", "1/s", "higher", 0.25, driver=True),
    Metric("first_frame_ms_p50", "ms", "lower", 0.25, driver=True),
    Metric("failed_share", "share", "lower", 0.0, exact=True),
    Metric("modelled_ms", "ms", "lower", 0.0, exact=True),
    Metric("modelled_first_pixel_ms", "ms", "lower", 0.0, exact=True,
           workloads=("progressive_tiles",)),
    Metric("peak_rss_mb", "MB", "lower", 0.15, driver=True),
)

_PAPER_METHODS = ("bs", "bsbr", "bslc", "bsbrc")
_SCALE_METHODS = ("bs", "bsbrc", "radix-k")


def _per_layer() -> tuple[Metric, ...]:
    rows = [
        Metric("experiments.import_s", "s", "lower",
               moves="setup_s, all (most on serve_spool)"),
        Metric("volume.make_dataset_s", "s", "lower", moves="setup_s, all"),
        Metric("volume.partition_ms", "ms", "lower",
               moves="op_ms_p50 on oneshot_sparse"),
        Metric("render.whole_ms_per_frame", "ms", "lower",
               moves="op_ms_p50 on oneshot_sparse, serve_*"),
        Metric("render.calls_per_frame", "count", "lower",
               moves="op_ms_p50 on oneshot_sparse, serve_*"),
        Metric("render.mrays_per_s", "Mrays/s", "higher",
               moves="op_ms_p50 on oneshot_sparse, serve_*"),
        Metric("render.clipped_ms_per_frame", "ms", "lower",
               moves="op_ms_p50, first_frame_ms_p50 on progressive_tiles"),
        Metric("render.tile_overhead_ratio", "ratio", "lower",
               moves="op_ms_p50, first_frame_ms_p50 on progressive_tiles"),
        Metric("render.nonblank_share", "share", "higher",
               moves="explains compositing.bytes_sent.*"),
    ]
    for scale, methods, workload in (
        ("p64", _PAPER_METHODS, "composite_paper"),
        ("p256", _SCALE_METHODS, "composite_scale"),
    ):
        for m in methods:
            rows.append(Metric(f"compositing.run_ms.{scale}.{m}", "ms", "lower",
                               moves=f"op_ms_p50 on {workload}"))
        for counter, unit in (("bytes_sent", "bytes"), ("msgs", "count"),
                              ("mmax_bytes", "bytes")):
            for m in methods:
                rows.append(Metric(f"compositing.{counter}.{scale}.{m}", unit,
                                   "lower", exact=True, moves="modelled_ms"))
    for m in _PAPER_METHODS:
        rows.append(Metric(f"compositing.wire_ms_per_mb.{m}", "ms/MB", "lower",
                           moves="op_ms_p50 on composite_paper"))
    for scale in ("p64", "p256"):
        rows += [
            Metric(f"cluster.engine_us_per_msg.{scale}", "us", "lower",
                   moves="op_ms_p50 on composite_scale"),
            Metric(f"cluster.msgs_per_op.{scale}", "count", "lower", exact=True,
                   moves="op_ms_p50 on composite_scale"),
            Metric(f"cluster.engine_share.{scale}", "share", "lower",
                   moves="tells composite_scale (high) from composite_paper (low)"),
        ]
    rows += [
        Metric("pipeline.overhead_ms", "ms", "lower",
               moves="op_ms_p50 on oneshot_sparse"),
        Metric("pipeline.assemble_ms", "ms", "lower",
               moves="baseline for serving.service.*"),
        Metric("pipeline.session_ms_p50", "ms", "lower",
               moves="baseline for serving.service.*"),
        Metric("pipeline.progress_cost_share", "share", "lower",
               moves="op_ms_p50 on progressive_tiles"),
        Metric("serving.service.solo_ms_p50", "ms", "lower",
               moves="ops_per_s, op_ms_p50 on serve_inproc"),
        Metric("serving.service.contention_ratio", "ratio", "lower",
               moves="ops_per_s, op_ms_p50 on serve_inproc"),
        Metric("serving.service.overhead_ms", "ms", "lower",
               moves="ops_per_s, op_ms_p50 on serve_inproc"),
        Metric("serving.service.peak_active", "count", "higher",
               moves="ops_per_s on serve_inproc"),
        Metric("serving.service.stream_events_per_job", "count", "lower",
               exact=True, moves="ops_per_s on serve_inproc"),
        Metric("serving.service.stream_bytes_per_job", "bytes", "lower",
               exact=True, moves="op_ms_p50 on serve_spool"),
        Metric("serving.service.stream_encode_ms_per_job", "ms", "lower",
               moves="op_ms_p50 on serve_spool"),
        Metric("serving.service.stream_cost_share", "share", "lower",
               moves="ops_per_s on serve_inproc"),
        Metric("serving.spool.submit_write_ms_p50", "ms", "lower",
               moves="op_ms_p50 on serve_spool"),
        Metric("serving.spool.claim_wait_ms_p50", "ms", "lower",
               moves="op_ms_p50, first_frame_ms_p50 on serve_spool"),
        Metric("serving.spool.result_write_ms_p50", "ms", "lower",
               moves="op_ms_p50 on serve_spool"),
        Metric("serving.spool.bytes_per_job", "bytes", "lower", exact=True,
               moves="op_ms_p50 on serve_spool"),
        Metric("serving.spool.overhead_ms", "ms", "lower",
               moves="the file front end's whole cost on serve_spool"),
        Metric("modelled.ms", "ms", "lower", exact=True,
               moves="the traced workload's modelled SP2 makespan per op"),
        Metric("modelled.first_pixel_ms", "ms", "lower", exact=True,
               moves="modelled_first_pixel_ms on progressive_tiles"),
        Metric("host.cpu_ms_per_op", "ms", "lower", moves="diagnostic"),
        Metric("host.trace_overhead_share", "share", "lower", moves="diagnostic"),
        Metric("trace.coverage_share", "share", "higher",
               moves="share of the traced workload's op attributed to a layer"),
    ]
    for layer in LAYERS:
        rows.append(Metric(f"trace.self_share.{layer}", "share", "lower",
                           moves=f"share of the traced workload's op spent in {layer}"))
    return tuple(rows)


PER_LAYER: tuple[Metric, ...] = _per_layer()


def e2e_for(workload: str) -> list[Metric]:
    return [m for m in E2E if m.workloads is None or workload in m.workloads]


def benchmark_doc(workloads: Sequence[tuple[str, str]], run_seconds: int) -> dict:
    """``BENCHMARK.json`` exactly as the driver's contract shapes it."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": run_seconds,
        "workloads": [{"name": n, "why": w} for n, w in workloads],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in E2E if m.driver
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }


# ---- environment ------------------------------------------------------------
#: Environment pins of every measured process.  numpy asks for transparent
#: huge pages on every array of 4 MB or more; on a VM with free-page
#: reporting a huge-page fault has to get its 2 MB back from the host, and
#: when the host was short of memory that took ``make_dataset`` from 0.2 s
#: to 20 s here and a block's set-up from 1 s to 40 s: host state, not
#: program, so the request is switched off.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMPY_MADVISE_HUGEPAGE": "0",
}


def pinned_env() -> dict[str, str]:
    """The environment every measured process runs under."""
    env = dict(os.environ)
    env.pop("REPRO_CACHE_DIR", None)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = SRC_DIR
    return env


def host_info() -> dict[str, Any]:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "env": PINNED_ENV,
        "REPRO_CACHE_DIR": "unset",
    }


def require_program() -> None:
    """Exit non-zero, printing no result, when the program is absent."""
    if not os.path.isdir(os.path.join(SRC_DIR, "repro")):
        print(f"benchmark: no program to measure ({SRC_DIR}/repro missing)",
              file=sys.stderr)
        raise SystemExit(2)


def time_import(module: str) -> float:
    """Wall seconds of ``import <module>`` in a fresh interpreter."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", f"import {module}"], env=pinned_env(),
                   check=True, timeout=SETUP_TIMEOUT_S)
    return time.perf_counter() - start


# ---- block subprocesses -----------------------------------------------------
def _kill_group(proc: subprocess.Popen) -> None:
    """Stop the child and anything it spawned (the serve subprocess)."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    proc.wait()


def run_child(mode: str, spec: dict, timeout: float) -> tuple[list[dict], bool]:
    """Run ``run.py --<mode> <spec>`` in a fresh interpreter and session.

    Returns the JSON records it printed (one per line) and whether it
    exited cleanly in time.  Its whole process group is reaped either
    way, and its scratch directory removed.
    """
    os.makedirs(OUT_DIR, exist_ok=True)
    spec = dict(spec, spawned_at=time.time())
    proc = subprocess.Popen(
        [sys.executable, RUN_PY, f"--{mode}", json.dumps(spec)],
        env=pinned_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
        clean = proc.returncode == 0
    except subprocess.TimeoutExpired:
        _kill_group(proc)
        out, err = proc.communicate()
        clean = False
    _kill_group(proc)  # stragglers of a clean exit, too
    shutil.rmtree(scratch_dir(proc.pid), ignore_errors=True)
    if not clean and err:
        sys.stderr.write(err[-2000:])
    records = []
    for line in out.splitlines():
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            continue  # a line torn by the kill
    return records, clean


def scratch_dir(pid: int) -> str:
    """Per-child scratch space, inside the checkout."""
    return os.path.join(OUT_DIR, f"tmp-{pid}")


@dataclass
class BlockResult:
    workload: str
    block: int
    setup_s: Optional[float]
    setup_parts: dict
    ops: list[dict]
    failed: int
    peak_rss_mb: Optional[float]
    cpu_ms_per_op: Optional[float]
    timed_wall_s: Optional[float]
    #: :func:`attribution` of a traced block's spans (``None`` untraced).
    attribution: Optional[dict] = None


def block_limit_s(seconds: float) -> float:
    """Wall seconds after which a block counts as hung."""
    return SETUP_TIMEOUT_S + seconds + OP_TIMEOUT_S


class Budget:
    """Wall seconds one invocation has left (``None``: no limit)."""

    def __init__(self, seconds: Optional[float]) -> None:
        self.end = None if seconds is None else time.monotonic() + seconds

    def left(self) -> float:
        return float("inf") if self.end is None else self.end - time.monotonic()

    def block_limit_s(self, seconds: float) -> Optional[float]:
        """The hang limit of a block about to start, cut to what is left;
        ``None`` when too little is left for the block to be worth starting."""
        left = self.left()
        if left < seconds + SETUP_TIMEOUT_S / 4:
            return None
        return min(block_limit_s(seconds), left)


def run_block(workload: str, seed: int, block: int, seconds: float, size: str,
              trace: bool = False, limit_s: Optional[float] = None) -> BlockResult:
    """One block: spawn → import → scene → verified warm-up → timed ops."""
    spec = {"workload": workload, "seed": seed, "block": block,
            "seconds": seconds, "size": size, "trace": trace}
    records, clean = run_child(
        "block", spec, block_limit_s(seconds) if limit_s is None else limit_s)
    ready = next((r for r in records if r.get("ev") == "ready"), None)
    done = next((r for r in records if r.get("ev") == "done"), None)
    ops = [r for r in records if r.get("ev") == "op"]
    failed = sum(1 for r in ops if not r["ok"])
    if not clean or done is None:
        # Hung or crashed: whatever was in flight never produced a record.
        failed += 1
        ops.append({"ev": "op", "key": "lost", "ok": False, "timed": True,
                    "err": "block did not finish"})
    return BlockResult(
        workload=workload, block=block,
        setup_s=None if ready is None else ready["ready_wall"] - ready["spawned_at"],
        setup_parts={} if ready is None else ready.get("parts", {}),
        ops=ops, failed=failed,
        peak_rss_mb=None if done is None else done["peak_rss_mb"],
        cpu_ms_per_op=None if done is None else done.get("cpu_ms_per_op"),
        timed_wall_s=None if done is None else done.get("timed_wall_s"),
        attribution=None if done is None else done.get("attribution"),
    )


# ---- aggregation ------------------------------------------------------------
def summarise(workload: str, blocks: Sequence[BlockResult], clients: int = 1) -> dict:
    """Metrics of one workload over its blocks.

    Each value is the statistic over all timed ops of all blocks; the
    spread of the per-block statistics rides along as ``spread``.
    """
    def timed(block: BlockResult) -> list[dict]:
        return [o for o in block.ops if o.get("timed") and o["ok"]]

    all_ops = [o for b in blocks for o in timed(b)]
    attempted = sum(len(b.ops) for b in blocks)
    failed = sum(b.failed for b in blocks)
    metrics: dict[str, dict] = {}

    def put(name: str, value: Optional[float], n: int, per_block: Sequence[float]):
        metrics[name] = {"value": value, "n": n, "spread": rel_spread(list(per_block))}

    setups = [b.setup_s for b in blocks if b.setup_s is not None]
    put("setup_s", median(setups) if setups else None, len(setups), setups)
    op_ms = [o["ms"] for o in all_ops]
    put("op_ms_p50", median(op_ms) if op_ms else None, len(op_ms),
        [median([o["ms"] for o in timed(b)]) for b in blocks if timed(b)])
    put("op_ms_p90", p90_or_none(op_ms), len(op_ms),
        [percentile([o["ms"] for o in timed(b)], 90) for b in blocks if timed(b)])
    rates = []
    for b in blocks:
        ok = timed(b)
        if not ok:
            continue
        # One client: ops over their own summed durations (verification
        # between ops is outside every op's span).  Several clients
        # overlap, so only the phase's wall clock is a denominator.
        busy = (b.timed_wall_s if clients > 1 and b.timed_wall_s
                else sum(o["ms"] for o in ok) / 1e3)
        rates.append((len(ok), busy))
    total_busy = sum(busy for _, busy in rates)
    put("ops_per_s", sum(n for n, _ in rates) / total_busy if total_busy else None,
        len(op_ms), [n / busy for n, busy in rates if busy])
    first = [o["first_ms"] for o in all_ops]
    put("first_frame_ms_p50", median(first) if first else None, len(first),
        [median([o["first_ms"] for o in timed(b)]) for b in blocks if timed(b)])
    put("failed_share", failed / attempted if attempted else 1.0, attempted, [])
    pinned = [o for b in blocks for o in b.ops if o.get("pinned") and o["ok"]]
    modelled = [o["modelled_ms"] for o in pinned]
    put("modelled_ms", sum(modelled) / len(modelled) if modelled else None,
        len(modelled), [])
    first_px = [o["first_pixel_ms"] for o in pinned if o.get("first_pixel_ms") is not None]
    put("modelled_first_pixel_ms", sum(first_px) / len(first_px) if first_px else None,
        len(first_px), [])
    rss = [b.peak_rss_mb for b in blocks if b.peak_rss_mb is not None]
    put("peak_rss_mb", max(rss) if rss else None, len(rss), rss)
    wanted = {m.name for m in e2e_for(workload)}
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: v for k, v in metrics.items() if k in wanted},
        "setup_parts": {
            key: median([b.setup_parts[key] for b in blocks if key in b.setup_parts])
            for key in sorted({k for b in blocks for k in b.setup_parts})
        },
    }


def golden_mismatches(workload: str, blocks: Sequence[BlockResult],
                      golden: dict) -> list[str]:
    """Pinned ops whose digest or modelled clock left the golden data."""
    want = golden.get("workloads", {}).get(workload, {})
    problems = []
    for block in blocks:
        for op in block.ops:
            if not op.get("pinned") or not op["ok"]:
                continue
            pin = want.get(op["key"])
            if pin is None:
                problems.append(f"{workload} {op['key']}: not in golden.json")
                continue
            for field in ("digest", "modelled_ms", "first_pixel_ms"):
                if pin.get(field) != op.get(field):
                    problems.append(
                        f"{workload} {op['key']} {field}: "
                        f"golden {pin.get(field)!r} != measured {op.get(field)!r}")
    return problems


def golden_from(results: dict[str, Sequence[BlockResult]], seed: int) -> dict:
    doc: dict[str, Any] = {"schema": "repro.e2e-golden/1", "seed": seed,
                           "workloads": {}}
    for workload, blocks in results.items():
        pins = {}
        for block in blocks:
            for op in block.ops:
                if op.get("pinned") and op["ok"]:
                    pins[op["key"]] = {
                        "digest": op.get("digest"),
                        "modelled_ms": op.get("modelled_ms"),
                        "first_pixel_ms": op.get("first_pixel_ms"),
                    }
        doc["workloads"][workload] = dict(sorted(pins.items()))
    return doc


# ---- reports ----------------------------------------------------------------
def load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def save_json(path: str, doc: dict) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.tmp-{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=False)
        fh.write("\n")
    os.replace(tmp, path)


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "n/a"
    return f"{value:.4g}" if abs(value) < 1e4 else f"{value:.0f}"


def _bound_text(metric: Metric) -> str:
    if metric.exact:
        return "exact"
    return "-" if metric.bound is None else f"{metric.bound:.0%}"


def format_e2e(summaries: dict[str, dict]) -> str:
    lines = [f"{'workload':<18} {'metric':<24} {'value':>10} {'unit':<6} "
             f"{'n':>5} {'bound':>6} {'block spread':>13}"]
    for workload, summary in summaries.items():
        for metric in e2e_for(workload):
            cell = summary["metrics"][metric.name]
            note = ""
            if metric.name == "op_ms_p90" and cell["value"] is None:
                note = f"  (needs n >= {P90_MIN_SAMPLES})"
            lines.append(
                f"{workload:<18} {metric.name:<24} {_fmt(cell['value']):>10} "
                f"{metric.unit:<6} {cell['n']:>5} {_bound_text(metric):>6} "
                f"{cell['spread']:>12.1%}{note}")
    return "\n".join(lines)


def format_per_layer(values: dict[str, float]) -> str:
    lines = [f"{'per-layer metric':<46} {'value':>12} {'unit':<8} moves"]
    for metric in PER_LAYER:
        if metric.name in values:
            lines.append(f"{metric.name:<46} {_fmt(values[metric.name]):>12} "
                         f"{metric.unit:<8} {metric.moves}")
    return "\n".join(lines)


def worse_by(metric: Metric, base: float, fresh: float) -> float:
    """How much worse ``fresh`` reads than ``base``, as a share of base."""
    if base == 0:
        return 0.0 if fresh == 0 else float("inf")
    delta = (fresh - base) / abs(base)
    return delta if metric.better == "lower" else -delta


def verdict(metric: Metric, base: Optional[float], fresh: Optional[float],
            spread: float, worse: Optional[float]) -> str:
    """``ok`` / ``regressed`` / ``unresolved`` for one (workload, metric)."""
    if base is None and fresh is None:
        return "ok"
    if base is None or fresh is None:
        return "unresolved"
    if metric.exact:
        if metric.name == "failed_share":
            return "ok" if fresh <= base else "regressed"
        return "ok" if fresh == base else "regressed"
    if spread > metric.bound:
        return "unresolved"  # the blocks disagree by more than the bound
    return "regressed" if worse > metric.bound else "ok"


def compare_rows(base: dict[str, dict], fresh: dict[str, dict], *,
                 symmetric: bool = False) -> list[dict]:
    """One row per (workload, metric) of ``fresh`` against ``base``.

    ``symmetric`` is the A/A reading: neither side is the reference, so
    the difference counts in either direction and the wider of the two
    block spreads applies.
    """
    rows = []
    for workload, summary in fresh.items():
        for metric in e2e_for(workload):
            cell = summary["metrics"][metric.name]
            stored = base.get(workload, {}).get("metrics", {}).get(metric.name, {})
            a, b = stored.get("value"), cell["value"]
            worse = None if a is None or b is None else worse_by(metric, a, b)
            spread = cell["spread"]
            if symmetric:
                worse = None if worse is None else abs(worse)
                spread = max(spread, stored.get("spread", 0.0))
            rows.append({
                "workload": workload, "metric": metric.name, "base": a, "fresh": b,
                "worse_by": worse, "bound": _bound_text(metric), "spread": spread,
                "verdict": verdict(metric, a, b, spread, worse),
            })
    return rows


def format_rows(rows: Sequence[dict], labels: tuple[str, str] = ("stored", "fresh")) -> str:
    lines = [f"{'workload':<18} {'metric':<24} {labels[0]:>10} {labels[1]:>10} "
             f"{'worse by':>9} {'bound':>6} {'spread':>7}  verdict"]
    for row in rows:
        delta = "" if row["worse_by"] is None else f"{row['worse_by']:+.1%}"
        lines.append(
            f"{row['workload']:<18} {row['metric']:<24} {_fmt(row['base']):>10} "
            f"{_fmt(row['fresh']):>10} {delta:>9} {row['bound']:>6} "
            f"{row['spread']:>6.1%}  {row['verdict']}")
    return "\n".join(lines)


def spans_doc(workload: str, seed: int, tracer: Tracer) -> dict:
    return {
        "schema": "repro.e2e-trace/1",
        "workload": workload,
        "seed": seed,
        "clock": "time.perf_counter seconds of the block process",
        "attribution": attribution(tracer.spans),
        "counts": tracer.counts,
        "spans": [asdict(s) for s in tracer.spans],
    }
