"""The six workloads, and the block process that runs one of them.

A workload turns a seed into a stream of camera angles and nothing else;
the program receives only the configs built from them.  Every op is
timed around one call into the program's public API and checked outside
that span.  ``repro`` is imported inside :meth:`Workload.setup`, because
importing it is part of the set-up time being measured.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import resource
import signal
import subprocess
import sys
import threading
import time
from typing import Any, Iterator, Optional

from harness import (
    GOLDEN_OPS,
    OP_TIMEOUT_S,
    OUT_DIR,
    WARMUP_TIMEOUT_S,
    Tracer,
    pinned_env,
    save_json,
    scratch_dir,
    spans_doc,
)

#: Scene sizes.  ``smoke`` exists so the self-tests finish in seconds;
#: its numbers mean nothing.
SIZES: dict[str, dict[str, dict[str, Any]]] = {
    "full": {
        "pipeline": {"dataset": "engine_high", "image_size": 192, "num_ranks": 16},
        "serve": {"dataset": "engine_high", "image_size": 96, "num_ranks": 8},
        "paper": {"dataset": "head", "image_size": 384, "num_ranks": 64},
        "scale": {"num_ranks": 256, "image_size": 96, "fill": 0.2},
    },
    "smoke": {
        "pipeline": {"dataset": "sphere", "image_size": 48, "num_ranks": 4},
        "serve": {"dataset": "sphere", "image_size": 32, "num_ranks": 4},
        "paper": {"dataset": "sphere", "image_size": 48, "num_ranks": 8},
        "scale": {"num_ranks": 16, "image_size": 32, "fill": 0.2},
    },
}

SERVE_METHOD = "bsbrc"
TILE_METHOD = "tile-routed:rect-rle"
PAPER_METHODS = ("bs", "bsbr", "bslc", "bsbrc")
SCALE_METHODS = ("bs", "bsbrc", "radix-k:rect-rle")
#: Spool poll period of the closed-loop client.
POLL_S = 0.002
#: Job count at which serve_spool reads the server's memory high-water mark.
RSS_AFTER_JOBS = 10


def cameras(seed: int, workload: str, block: int, client: int = 0) -> Iterator[dict]:
    """The seeded camera stream of one (workload, block, client).

    Independent draws, not a monotone sweep: a faster program gets
    further along the stream within its time budget, and any prefix of
    independent draws is a fair sample of the same viewpoints.
    """
    rng = random.Random(f"{seed}/{workload}/{block}/{client}")
    while True:
        yield {"rot_x": round(rng.uniform(0.0, 45.0), 2),
               "rot_y": round(rng.uniform(0.0, 90.0), 2)}


def image_digest(*images) -> str:
    import numpy as np

    h = hashlib.blake2b(digest_size=16)
    for image in images:
        h.update(np.ascontiguousarray(image.intensity).tobytes())
        h.update(np.ascontiguousarray(image.opacity).tobytes())
    return h.hexdigest()


def engine_probe(num_ranks: int, model):
    """The event engine alone: log2(P) pairwise ``sendrecv`` rounds plus
    a gather, with empty payloads — the message shape of a binary-swap
    compositing run and nothing a codec would do."""
    from repro.cluster.backend import SimBackend
    from repro.cluster.collectives import gather

    stages = num_ranks.bit_length() - 1

    async def program(ctx):
        for stage in range(stages):
            ctx.begin_stage(stage)
            await ctx.sendrecv(ctx.rank ^ (1 << stage), None, nbytes=0)
        await gather(ctx, None, root=0, nbytes=0)

    return SimBackend().run(num_ranks, program, model=model)


def replay_pipeline(tracer: Tracer, op_id: str, root: int, cfg, *, clipped: bool):
    """Re-run ``cfg`` one public call at a time, as children of ``root``.

    The real op is one opaque call; this splits it from outside into
    partition, P (or P x tiles) ``render_subvolume`` calls,
    ``run_compositing`` (with the engine-only probe as *its* child) and
    ``assemble_final``.  Returns the replay's final image, which must
    equal the real op's bit for bit or the split describes other work.
    """
    from repro import (Camera, Rect, SubImage, assemble_final, make_dataset,
                       recursive_bisect, render_subvolume, run_compositing)
    from repro.compositing.tiles import build_tile_map
    from repro.compositing.tile_engine import DEFAULT_TILE

    with tracer.span(op_id, "volume", "partition", root):
        volume, transfer = make_dataset(cfg.dataset, cfg.volume_shape)
        camera = Camera(width=cfg.image_size, height=cfg.image_size,
                        volume_shape=volume.shape, rot_x=cfg.rot_x,
                        rot_y=cfg.rot_y, rot_z=cfg.rot_z, step=cfg.step)
        plan = recursive_bisect(volume.shape, cfg.num_ranks)
    size = cfg.image_size
    images = []
    if clipped:
        tiles = build_tile_map(Rect(0, 0, size, size), DEFAULT_TILE, cfg.num_ranks)
        for rank in range(cfg.num_ranks):
            image = SubImage.blank(size, size)
            for rect in tiles.rects:
                with tracer.span(op_id, "render", "render_subvolume[clip]", root):
                    part = render_subvolume(volume, transfer, camera,
                                            plan.extent(rank), clip_rect=rect)
                tracer.count("render.calls", 1)
                rows, cols = rect.slices()
                image.intensity[rows, cols] = part.intensity[rows, cols]
                image.opacity[rows, cols] = part.opacity[rows, cols]
            images.append(image)
    else:
        for rank in range(cfg.num_ranks):
            with tracer.span(op_id, "render", "render_subvolume", root):
                images.append(
                    render_subvolume(volume, transfer, camera, plan.extent(rank)))
            tracer.count("render.calls", 1)
    with tracer.span(op_id, "compositing", "run_compositing", root) as comp:
        run = run_compositing(images, cfg.method, plan, camera.view_dir,
                              cfg.machine, **cfg.method_options)
    if not clipped:  # the probe has binary swap's message shape, not the tile router's
        with tracer.span(op_id, "cluster", "engine_probe", comp):
            engine_probe(cfg.num_ranks, cfg.machine)
    with tracer.span(op_id, "pipeline", "assemble_final", root):
        final = assemble_final(run.outcomes, size, size)
    return final


class Workload:
    """One workload inside one block process."""

    name = ""
    why = ""
    clients = 1
    #: How long an op may take before it counts as failed.
    timeout_s = OP_TIMEOUT_S

    def __init__(self, size: str, seed: int, block: int):
        self.seed = seed
        self.block = block
        self.sizes = SIZES[size]
        #: Set-up phases in wall seconds, for the trace and the README.
        self.parts: dict[str, float] = {}

    def ops(self, client: int = 0) -> Iterator[dict]:
        """Seeded op stream: ``{"key", "client", "camera"}`` forever."""
        for index, camera in enumerate(cameras(self.seed, self.name, self.block, client)):
            yield {"key": f"{self.block}.{client}.{index}", "client": client,
                   "index": index, "camera": camera}

    def setup(self) -> None:
        raise NotImplementedError

    def run_op(self, op: dict, tracer: Optional[Tracer] = None) -> dict:
        """Run and verify one op; returns its record (``ok`` False on any
        failure, refusal, timeout or wrong pixel — never raises)."""
        try:
            record = self._run_op(op, tracer)
        except Exception as err:  # noqa: BLE001 - a failed op is a data point
            record = {"ok": False, "err": f"{type(err).__name__}: {err}"}
        record.update(ev="op", key=op["key"], traced=tracer is not None,
                      pinned=op["index"] < GOLDEN_OPS)
        return record

    def _run_op(self, op: dict, tracer: Optional[Tracer]) -> dict:
        raise NotImplementedError

    def warm_up(self, op: dict) -> dict:
        """The first op, which pays for the scene (and on serve_spool waits
        for the server to start), under the longer set-up timeout."""
        self.timeout_s = WARMUP_TIMEOUT_S
        try:
            return self.run_op(op)
        finally:
            self.timeout_s = OP_TIMEOUT_S

    def after_loop(self, tracer: Optional[Tracer]) -> None:
        """Work deferred until the timed phase is over."""

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def cpu_seconds(self) -> float:
        return time.process_time()

    def close(self) -> None:
        pass


# ---- one-shot pipeline ------------------------------------------------------
class OneshotSparse(Workload):
    name = "oneshot_sparse"
    why = ("The paper's full pipeline on its sparse dataset: render is ~85% of the op, "
           "compositing+cluster ~10%, so render and pipeline changes show and codec "
           "changes do not.")
    method = SERVE_METHOD
    progressive = False

    def setup(self) -> None:
        t0 = time.perf_counter()
        from repro import RunConfig, SortLastSystem  # noqa: F401
        self.parts["import_s"] = time.perf_counter() - t0
        self.base = RunConfig(method=self.method, **self.sizes["pipeline"])

    def _run_op(self, op: dict, tracer: Optional[Tracer]) -> dict:
        from repro import ProgressFeed, SortLastSystem

        cfg = self.base.with_(**op["camera"])
        feed = consumer = None
        stamp: list[float] = []
        if self.progressive:
            feed = ProgressFeed()

            def consume() -> None:
                for _ in feed.stream(timeout=self.timeout_s):
                    if not stamp:
                        stamp.append(time.perf_counter())

            consumer = threading.Thread(target=consume, name="first-frame")
            consumer.start()
        t0 = time.perf_counter()
        try:
            result = SortLastSystem(cfg).run(progress=feed)
        finally:
            t1 = time.perf_counter()
            if consumer is not None:
                feed.close()
                consumer.join(self.timeout_s)
        ok = bool(result.final_image.allclose(result.reference_image()))
        if self.progressive:
            last = feed.events[-1] if feed.events else None
            ok = ok and bool(stamp) and last is not None and last.kind == "final" \
                and last.coverage == 1.0
        first_pixel = result.timeline.meta.get("latency_to_first_pixel")
        record = {
            "ok": ok,
            "ms": (t1 - t0) * 1e3,
            "first_ms": ((stamp[0] if stamp else t1) - t0) * 1e3,
            "modelled_ms": result.timeline.makespan * 1e3,
            "first_pixel_ms": None if first_pixel is None else first_pixel * 1e3,
            "digest": image_digest(result.final_image),
        }
        if tracer is not None:
            root = tracer.add(op["key"], "pipeline", "SortLastSystem.run", t0, t1)
            replayed = replay_pipeline(tracer, op["key"], root, cfg,
                                       clipped=self.progressive)
            record["ok"] = ok and image_digest(replayed) == record["digest"]
        return record


class ProgressiveTiles(OneshotSparse):
    name = "progressive_tiles"
    why = ("Same scene through tile-routed:rect-rle with a live feed: 576 clipped "
           "render calls instead of 16 whole ones, and the only workload where the "
           "tile plane's wall first-frame latency shows.")
    method = TILE_METHOD
    progressive = True


# ---- compositing only -------------------------------------------------------
class CompositeWorkload(Workload):
    """One op = one ``run_compositing`` per method over given subimages."""

    methods: tuple[str, ...] = ()
    #: Digest of the first op, where every op composites the same input.
    first_digest: Optional[str] = None

    def _set_input(self, images, plan, view_dir) -> None:
        from repro import SP2, composite_sequential, depth_order

        self.images, self.plan, self.view_dir, self.model = images, plan, view_dir, SP2
        self.side = images[0].height
        self.reference = composite_sequential(images, depth_order(plan, view_dir))

    def prepare(self, op: dict) -> None:
        """Build the op's input, outside its timed span (default: reuse)."""

    def _run_op(self, op: dict, tracer: Optional[Tracer]) -> dict:
        from repro import assemble_final, run_compositing

        self.prepare(op)
        runs, stamps = [], []
        t0 = time.perf_counter()
        for method in self.methods:
            runs.append(run_compositing(self.images, method, self.plan,
                                        self.view_dir, self.model))
            stamps.append(time.perf_counter())
        finals = [assemble_final(run.outcomes, self.side, self.side) for run in runs]
        digest = image_digest(*finals)
        ok = all(f.allclose(self.reference) for f in finals) \
            and self.first_digest in (None, digest)
        record = {
            "ok": bool(ok),
            "ms": (stamps[-1] - t0) * 1e3,
            "first_ms": (stamps[0] - t0) * 1e3,
            "modelled_ms": sum(run.stats.makespan for run in runs) * 1e3,
            "first_pixel_ms": None,
            "digest": digest,
        }
        if tracer is not None:
            root = tracer.add(op["key"], "harness", "cycle", t0, stamps[-1])
            begin = t0
            for method, end in zip(self.methods, stamps):
                comp = tracer.add(op["key"], "compositing",
                                  f"run_compositing[{method}]", begin, end, root)
                with tracer.span(op["key"], "cluster", "engine_probe", comp):
                    probe = engine_probe(len(self.images), self.model)
                tracer.count("cluster.probe_msgs",
                             sum(rs.msgs_sent for rs in probe.rank_stats))
                begin = end
            record["counters"] = {
                method: [sum(rs.bytes_sent for rs in run.stats.rank_stats),
                         sum(rs.msgs_sent for rs in run.stats.rank_stats),
                         run.stats.mmax_bytes]
                for method, run in zip(self.methods, runs)}
        return record


class CompositePaper(CompositeWorkload):
    name = "composite_paper"
    why = ("The paper's own measurement unit on real sparsity (head, 384 px, P=64): "
           "codecs, over and wire move nearly all bytes and render does nothing, the "
           "reverse of oneshot_sparse.")
    methods = PAPER_METHODS

    def setup(self) -> None:
        t0 = time.perf_counter()
        from repro import RunConfig, render_subvolume
        from repro.pipeline.phases import build_scene
        self.parts["import_s"] = time.perf_counter() - t0
        # One camera per block: the subimages are this workload's input.
        camera = next(cameras(self.seed, self.name, self.block))
        cfg = RunConfig(method="bs", **self.sizes["paper"], **camera)
        scene = build_scene(cfg)
        images = [render_subvolume(scene.volume, scene.transfer, scene.camera,
                                   scene.plan.extent(rank))
                  for rank in range(cfg.num_ranks)]
        self._set_input(images, scene.plan, scene.camera.view_dir)

    def _run_op(self, op: dict, tracer: Optional[Tracer]) -> dict:
        record = super()._run_op(op, tracer)
        # Same subimages every op, so the four finals must repeat exactly.
        self.first_digest = self.first_digest or record["digest"]
        return record


class CompositeScale(CompositeWorkload):
    name = "composite_scale"
    why = ("Tiny payloads and 2k+ messages per run at P=256: the cluster event "
           "engine's per-message host cost dominates and codecs are cheap, the mirror "
           "image of composite_paper.")
    methods = SCALE_METHODS

    def ops(self, client: int = 0) -> Iterator[dict]:
        """No camera here: the seed scatters each op's synthetic footprints
        (op time moves ~10% with the scatter, so one per op, not per block)."""
        rng = random.Random(f"{self.seed}/{self.name}/{self.block}/{client}")
        for index in itertools.count():
            yield {"key": f"{self.block}.{client}.{index}", "client": client,
                   "index": index, "scatter": rng.randrange(1 << 16)}

    def setup(self) -> None:
        t0 = time.perf_counter()
        from repro import recursive_bisect
        from repro.experiments.scale import VIEW_DIR, synthetic_subimages  # noqa: F401
        self.parts["import_s"] = time.perf_counter() - t0
        self.plan = recursive_bisect((64, 64, 64), self.sizes["scale"]["num_ranks"])

    def prepare(self, op: dict) -> None:
        from repro.experiments.scale import VIEW_DIR, synthetic_subimages

        spec = self.sizes["scale"]
        images = synthetic_subimages(spec["num_ranks"], spec["image_size"],
                                     spec["fill"], seed=op["scatter"])
        self._set_input(images, self.plan, VIEW_DIR)


# ---- serving ----------------------------------------------------------------
class ServeInproc(Workload):
    name = "serve_inproc"
    why = ("RenderService with two closed-loop streaming clients and no file I/O: "
           "multiplexing, admission and streaming cost, and the session contention "
           "that makes two clients slower than one.")
    clients = 2
    stream = True
    service = None

    def setup(self) -> None:
        t0 = time.perf_counter()
        from repro import RunConfig
        from repro.serving import RenderService
        self.parts["import_s"] = time.perf_counter() - t0
        self.base = RunConfig(method=SERVE_METHOD, **self.sizes["serve"])
        self.service = RenderService(self.base, max_workers=2)
        self.deferred: list[tuple[dict, float, float]] = []

    def _run_op(self, op: dict, tracer: Optional[Tracer]) -> dict:
        first = None
        events = 0
        t0 = time.perf_counter()
        ticket = self.service.submit(f"c{op['client']}", stream=self.stream,
                                     **op["camera"])
        for _ in ticket.stream(timeout=self.timeout_s):
            if first is None:
                first = time.perf_counter()
            events += 1
        result = ticket.result(timeout=self.timeout_s)
        t1 = time.perf_counter()
        if tracer is not None:
            self.deferred.append((op, t0, t1))
        return {
            "ok": bool(result.final_image.allclose(result.reference_image()))
            and (events > 0) == self.stream,
            "ms": (t1 - t0) * 1e3,
            "first_ms": ((first if first is not None else t1) - t0) * 1e3,
            "modelled_ms": result.timeline.makespan * 1e3,
            "first_pixel_ms": None,
            "digest": image_digest(result.final_image),
            "events": events,
        }

    def after_loop(self, tracer: Optional[Tracer]) -> None:
        """Replay each traced job on a bare session, alone: what is left
        of the served op is the service's own cost, contention included."""
        from repro import RenderSession

        with RenderSession(self.base) as session:
            for op, t0, t1 in self.deferred:
                root = tracer.add(op["key"], "serving.service", "submit..result", t0, t1)
                with tracer.span(op["key"], "pipeline", "RenderSession.submit", root):
                    session.submit(**op["camera"])

    def close(self) -> None:
        if self.service is not None:
            self.service.close(drain=True, timeout=OP_TIMEOUT_S)


class ServeSpool(Workload):
    name = "serve_spool"
    why = ("A real `serve` subprocess and one closed-loop client through the spool: "
           "what `submit --wait` waits for (job file, claim poll, render, event "
           "JSONL, npz, result doc) across a process boundary.")
    server: Optional[subprocess.Popen] = None

    def setup(self) -> None:
        t0 = time.perf_counter()
        from repro import RenderSession, RunConfig
        from repro.serving import submit_job  # noqa: F401
        self.parts["import_s"] = time.perf_counter() - t0
        spec = self.sizes["serve"]
        self.base = RunConfig(method=SERVE_METHOD, **spec)
        self.session = RenderSession(self.base)  # the in-process reference
        self.jobs_done = 0
        self.hwm_kb: Optional[int] = None
        self.root = os.path.join(scratch_dir(os.getpid()), "spool")
        os.makedirs(self.root)
        self.log = open(os.path.join(scratch_dir(os.getpid()), "serve.log"), "w")
        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro.experiments.cli", "serve",
             "--spool", self.root, "--dataset", spec["dataset"],
             "--ranks", str(spec["num_ranks"]),
             "--image-size", str(spec["image_size"]),
             "--method", SERVE_METHOD, "--max-workers", "2"],
            env=pinned_env(), stdout=self.log, stderr=subprocess.STDOUT)

    def _path(self, sub: str, name: str) -> str:
        return os.path.join(self.root, sub, name)

    def _run_op(self, op: dict, tracer: Optional[Tracer]) -> dict:
        import numpy as np
        from repro.serving import submit_job

        if self.server.poll() is not None:
            raise RuntimeError(f"serve exited with code {self.server.returncode}")
        t0 = time.perf_counter()
        job = submit_job(self.root, session="c0", deltas=op["camera"])
        t_submitted = time.perf_counter()
        job_file = self._path("jobs", f"{job}.json")
        events_file = self._path("out", f"{job}.events.jsonl")
        result_file = self._path("out", f"{job}.result.json")
        t_claimed = t_first = t_final = None
        offset, tail = 0, b""
        while True:
            now = time.perf_counter()
            if tracer is not None and t_claimed is None and not os.path.exists(job_file):
                t_claimed = now
            # Untraced, only the first complete line matters; traced, the
            # stream is followed to the line that carries the final frame.
            if t_first is None or (tracer is not None and t_final is None):
                try:
                    with open(events_file, "rb") as fh:
                        fh.seek(offset)
                        chunk = fh.read()
                except OSError:
                    chunk = b""
                if chunk:
                    offset += len(chunk)
                    window = tail + chunk
                    if t_first is None and b"\n" in window:
                        t_first = now
                    if b'"kind": "final"' in window:
                        tail = window[window.rindex(b'"kind": "final"'):]
                        if chunk.endswith(b"\n"):
                            t_final = now
                    else:
                        tail = window[-16:]
            if os.path.exists(result_file):
                t1 = time.perf_counter()
                break
            if now - t0 > self.timeout_s:
                raise TimeoutError(f"no result for {job} within {self.timeout_s}s")
            time.sleep(POLL_S)
        with open(result_file, encoding="utf-8") as fh:
            doc = json.load(fh)
        outputs = [events_file, result_file, self._path("out", f"{job}.final.npz")]
        ok = bool(doc.get("ok")) and t_first is not None
        # Bit-compare against an in-process run of the same config.
        t_ref = time.perf_counter()
        reference = self.session.submit(**op["camera"])
        t_ref_end = time.perf_counter()
        if ok:
            with np.load(outputs[2]) as planes:
                ok = bool(
                    np.array_equal(planes["intensity"], reference.final_image.intensity)
                    and np.array_equal(planes["opacity"], reference.final_image.opacity))
        record = {
            "ok": ok,
            "ms": (t1 - t0) * 1e3,
            "first_ms": ((t_first if t_first is not None else t1) - t0) * 1e3,
            "modelled_ms": None if doc.get("makespan") is None else doc["makespan"] * 1e3,
            "first_pixel_ms": None,
            "digest": image_digest(reference.final_image) if ok else None,
        }
        if tracer is not None:
            key = op["key"]
            t_claimed = t_claimed if t_claimed is not None else t_submitted
            t_final = t_final if t_final is not None else t1
            root = tracer.add(key, "harness", "submit..result.json", t0, t1)
            tracer.add(key, "serving.spool", "submit_job", t0, t_submitted, root)
            tracer.add(key, "serving.spool", "claim_wait", t_submitted, t_claimed, root)
            served = tracer.add(key, "serving.service", "claimed..final event line",
                                t_claimed, t_final, root)
            tracer.add(key, "pipeline", "RenderSession.submit", t_ref, t_ref_end, served)
            tracer.add(key, "serving.spool", "result_write", t_final, t1, root)
            tracer.count("spool.bytes", sum(os.path.getsize(p) for p in outputs))
            tracer.count("spool.jobs", 1)
        for path in outputs:  # ~5 MB of event JSONL per job adds up
            os.remove(path)
        self.jobs_done += 1
        if self.jobs_done == RSS_AFTER_JOBS:
            self.hwm_kb = self._server_status("VmHWM")
        return record

    def _server_status(self, field: str) -> Optional[int]:
        try:
            with open(f"/proc/{self.server.pid}/status", encoding="utf-8") as fh:
                for line in fh:
                    if line.startswith(field + ":"):
                        return int(line.split()[1])
        except OSError:
            pass
        return None

    def peak_rss_mb(self) -> float:
        """The server does the work, so its high-water mark is the one —
        read after a fixed number of jobs, because the server keeps every
        ticket it served (~1.4 MB a job) and a faster program, which gets
        more jobs into its seconds, must not read as a fatter one."""
        kb = self.hwm_kb if self.hwm_kb is not None else self._server_status("VmHWM")
        return super().peak_rss_mb() if kb is None else kb / 1024.0

    def cpu_seconds(self) -> float:
        """Client plus server CPU (the server's from ``/proc``)."""
        total = time.process_time()
        try:
            with open(f"/proc/{self.server.pid}/stat", encoding="utf-8") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
            total += (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")
        except (OSError, IndexError, ValueError):
            pass
        return total

    def close(self) -> None:
        if self.server is None:  # set-up failed before the spawn
            return
        if self.server.poll() is None:
            self.server.send_signal(signal.SIGTERM)  # graceful drain
            try:
                self.server.wait(10.0)
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.wait()
        self.log.close()
        self.session.close()


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (OneshotSparse, ProgressiveTiles, CompositePaper,
                              CompositeScale, ServeInproc, ServeSpool)
}


# ---- the block process ------------------------------------------------------
def block_main(spec: dict) -> int:
    """Body of ``run.py --block``: one JSON record per line on stdout."""
    lock = threading.Lock()

    def emit(record: dict) -> None:
        with lock:
            print(json.dumps(record), flush=True)

    os.makedirs(scratch_dir(os.getpid()), exist_ok=True)
    workload = WORKLOADS[spec["workload"]](spec["size"], spec["seed"], spec["block"])
    tracer = Tracer() if spec["trace"] else None
    try:
        t0 = time.perf_counter()
        workload.setup()
        streams = [workload.ops(client) for client in range(workload.clients)]
        t1 = time.perf_counter()
        warm = workload.warm_up(next(streams[0]))
        ready_wall = time.time()
        workload.parts["scene_s"] = (t1 - t0) - workload.parts["import_s"]
        workload.parts["warm_op_s"] = time.perf_counter() - t1
        emit({"ev": "ready", "spawned_at": spec["spawned_at"],
              "ready_wall": ready_wall, "parts": workload.parts})
        emit(dict(warm, timed=False))
        if not warm["ok"]:
            return 1

        counts = [1] + [0] * (workload.clients - 1)  # ops taken per client stream
        deadline = time.perf_counter() + spec["seconds"]

        def client_loop(client: int) -> None:
            while time.perf_counter() < deadline or counts[client] < GOLDEN_OPS:
                # Traced blocks alternate traced and untraced ops, so one
                # process yields both sides of the tracing-overhead ratio.
                traced = tracer if counts[client] % 2 == 1 else None
                counts[client] += 1
                emit(dict(workload.run_op(next(streams[client]), traced), timed=True))

        cpu0, wall0 = workload.cpu_seconds(), time.perf_counter()
        threads = [threading.Thread(target=client_loop, args=(c,))
                   for c in range(1, workload.clients)]
        for thread in threads:
            thread.start()
        client_loop(0)
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - wall0
        cpu = workload.cpu_seconds() - cpu0
        workload.after_loop(tracer)
        trace = None if tracer is None else spans_doc(workload.name, spec["seed"], tracer)
        emit({"ev": "done", "peak_rss_mb": workload.peak_rss_mb(),
              "cpu_ms_per_op": cpu * 1e3 / max(1, sum(counts) - 1),
              "timed_wall_s": wall,
              "attribution": None if trace is None else trace["attribution"]})
        if trace is not None:
            save_json(os.path.join(OUT_DIR, f"trace-{workload.name}.json"), trace)
        return 0
    finally:
        workload.close()
