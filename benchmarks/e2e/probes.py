"""Per-layer probes of the traced run.

Each probe calls one layer's public functions directly (or watches its
files) on the same scenes the workloads use, a handful of times — enough
to attribute, not to claim: per-layer numbers carry no bound.  The
probes are the same whichever workload's traced run they ride in, so a
layer's number can be read next to any workload's end-to-end change.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from typing import Callable

from harness import Span, Tracer, median, scratch_dir, self_times_ms
from workloads import (
    PAPER_METHODS,
    SCALE_METHODS,
    CompositePaper,
    CompositeScale,
    OneshotSparse,
    ProgressiveTiles,
    ServeInproc,
    ServeSpool,
    Workload,
    cameras,
)

#: Probe op counts per size: render frames, traced one-shot ops,
#: feed/no-feed pairs, cameras of the solo serving comparison, jobs per
#: duo client, spooled jobs, composite cycles (warm-ups not counted).
COUNTS = {
    "full": {"frames": 2, "oneshot": 5, "pairs": 2, "solo": 9, "duo": 8,
             "spool": 8, "cycles": 1},
    "smoke": {"frames": 1, "oneshot": 1, "pairs": 1, "solo": 3, "duo": 2,
              "spool": 2, "cycles": 1},
}
#: Block number of the probes' own camera streams (workload blocks are 0..2).
PROBE_BLOCK = 9


def _spans(tracer: Tracer, layer: str, name_prefix: str = "") -> list[Span]:
    return [s for s in tracer.spans
            if s.layer == layer and s.name.startswith(name_prefix)]


def _run_traced(workload: Workload, count: int, out: dict) -> tuple[Tracer, list[dict]]:
    """Warm the workload up, then ``count`` traced ops."""
    workload.setup()
    tracer = Tracer()
    try:
        ops = workload.ops()
        # Untraced and traced warm-ups: the first replay pays lazy imports.
        records = [workload.warm_up(next(ops)), workload.run_op(next(ops), Tracer())]
        records += [workload.run_op(next(ops), tracer) for _ in range(count)]
        workload.after_loop(tracer)
    finally:
        workload.close()
    out["ok"] = out["ok"] and all(r["ok"] for r in records)
    return tracer, records[2:]


def probe_volume_render(size: str, seed: int, out: dict) -> None:
    """``volume`` and ``render``: whole-subvolume and clipped calls."""
    from repro import (Camera, Rect, RunConfig, make_dataset, recursive_bisect,
                       render_subvolume)
    from repro.compositing.tile_engine import DEFAULT_TILE
    from repro.compositing.tiles import build_tile_map
    from workloads import SIZES

    cfg = RunConfig(**SIZES[size]["pipeline"])
    t1 = time.perf_counter()
    volume, transfer = make_dataset(cfg.dataset, cfg.volume_shape)
    out["metrics"]["volume.make_dataset_s"] = time.perf_counter() - t1
    side, ranks = cfg.image_size, cfg.num_ranks
    tiles = build_tile_map(Rect(0, 0, side, side), DEFAULT_TILE, ranks)
    partition_ms, whole_ms, clipped_ms = [], [], []
    rays = nonblank = 0
    for frame, camera_angles in enumerate(itertools.islice(
            cameras(seed, "probe.render", PROBE_BLOCK), COUNTS[size]["frames"] + 1)):
        t = time.perf_counter()
        camera = Camera(width=side, height=side, volume_shape=volume.shape,
                        step=cfg.step, **camera_angles)
        plan = recursive_bisect(volume.shape, ranks)
        partitioned = time.perf_counter()
        images = [render_subvolume(volume, transfer, camera, plan.extent(r))
                  for r in range(ranks)]
        rendered = time.perf_counter()
        if frame == 0:
            continue  # warm-up: the first frame builds the occupancy grid
        partition_ms.append((partitioned - t) * 1e3)
        whole_ms.append((rendered - partitioned) * 1e3)
        # A "ray" is a pixel of a rank's screen footprint: counted from the
        # camera, so the rate does not depend on the renderer's counters.
        rays += sum(camera.footprint_rect(plan.extent(r).corners()).area
                    for r in range(ranks))
        nonblank += sum(image.nonblank_count() for image in images)
        t = time.perf_counter()
        for r in range(ranks):
            for rect in tiles.rects:
                render_subvolume(volume, transfer, camera, plan.extent(r), clip_rect=rect)
        clipped_ms.append((time.perf_counter() - t) * 1e3)
    m = out["metrics"]
    m["volume.partition_ms"] = median(partition_ms)
    m["render.whole_ms_per_frame"] = median(whole_ms)
    m["render.calls_per_frame"] = ranks
    m["render.mrays_per_s"] = rays / (sum(whole_ms) / 1e3) / 1e6
    m["render.clipped_ms_per_frame"] = median(clipped_ms)
    m["render.tile_overhead_ratio"] = median(clipped_ms) / median(whole_ms)
    m["render.nonblank_share"] = nonblank / rays if rays else 0.0


def probe_pipeline(size: str, seed: int, out: dict) -> None:
    """``pipeline``: what ``SortLastSystem.run`` adds to its stages, and
    what attaching a progress feed costs the tile-routed path."""
    tracer, _ = _run_traced(OneshotSparse(size, seed, PROBE_BLOCK),
                            COUNTS[size]["oneshot"], out)
    own = self_times_ms(tracer.spans)
    roots = _spans(tracer, "pipeline", "SortLastSystem.run")
    m = out["metrics"]
    m["pipeline.overhead_ms"] = median([own[s.id] for s in roots])
    m["pipeline.assemble_ms"] = median(
        [s.ms for s in _spans(tracer, "pipeline", "assemble_final")])

    tiles = ProgressiveTiles(size, seed, PROBE_BLOCK)
    tiles.setup()
    ops = tiles.ops()
    records = [tiles.warm_up(next(ops))]
    with_feed, without_feed, first_pixel = [], [], []
    for pair, op in enumerate(itertools.islice(ops, COUNTS[size]["pairs"])):
        both = {}
        # Same method and camera with and without a feed; which goes first
        # alternates, because the second run finds the scene memoized.
        for progressive in ((True, False) if pair % 2 == 0 else (False, True)):
            tiles.progressive = progressive
            both[progressive] = tiles.run_op(op)
        fed, bare = both[True], both[False]
        records += [fed, bare]
        if fed["ok"] and bare["ok"]:
            with_feed.append(fed["ms"])
            without_feed.append(bare["ms"])
            first_pixel.append(fed["first_pixel_ms"])
    out["ok"] = out["ok"] and all(r["ok"] for r in records)
    m["pipeline.progress_cost_share"] = 1.0 - median(without_feed) / median(with_feed)
    m["modelled.first_pixel_ms"] = sum(first_pixel) / len(first_pixel)


def _probe_composite(workload: Workload, methods, scale: str, size: str, out: dict) -> None:
    tracer, records = _run_traced(workload, COUNTS[size]["cycles"], out)
    m = out["metrics"]
    cycle_ms = median([r["ms"] for r in records])
    for method in methods:
        short = method.partition(":")[0]
        m[f"compositing.run_ms.{scale}.{short}"] = median(
            [s.ms for s in _spans(tracer, "compositing", f"run_compositing[{method}]")])
        bytes_sent, msgs, mmax = records[-1]["counters"][method]
        m[f"compositing.bytes_sent.{scale}.{short}"] = bytes_sent
        m[f"compositing.msgs.{scale}.{short}"] = msgs
        m[f"compositing.mmax_bytes.{scale}.{short}"] = mmax
    probes = _spans(tracer, "cluster", "engine_probe")
    engine_ms = median([s.ms for s in probes])
    msgs_per_probe = tracer.counts["cluster.probe_msgs"] / len(probes)
    m[f"cluster.engine_us_per_msg.{scale}"] = engine_ms * 1e3 / msgs_per_probe
    m[f"cluster.msgs_per_op.{scale}"] = msgs_per_probe
    m[f"cluster.engine_share.{scale}"] = engine_ms * len(methods) / cycle_ms


def probe_compositing(size: str, seed: int, out: dict) -> None:
    """``compositing`` and ``cluster`` at P=64 (real sparsity) and P=256
    (synthetic), plus the wire kernels on the P=64 subimages."""
    paper = CompositePaper(size, seed, PROBE_BLOCK)
    _probe_composite(paper, PAPER_METHODS, "p64", size, out)
    _probe_wire(paper.images, out)
    _probe_composite(CompositeScale(size, seed, PROBE_BLOCK), SCALE_METHODS,
                     "p256", size, out)


def _probe_wire(images, out: dict) -> None:
    """pack + unpack per accounted megabyte, on the half of each subimage
    a rank would send in stage 0."""
    import numpy as np
    from repro import Rect
    from repro.compositing import wire

    side = images[0].height
    half = Rect(0, 0, side, side // 2)
    indices = np.arange(side * side // 2)

    def timed(pack: Callable, unpack: Callable) -> float:
        spent, nbytes = 0.0, 0
        for image in images:
            t = time.perf_counter()
            message = pack(image)
            unpack(message.buffer, image)
            spent += time.perf_counter() - t
            nbytes += message.accounted_bytes
        return spent * 1e3 / (nbytes / 1e6)

    m = out["metrics"]
    m["compositing.wire_ms_per_mb.bs"] = timed(
        lambda im: wire.pack_bs(im.intensity, im.opacity, half),
        lambda buf, im: wire.unpack_bs(buf, half))
    m["compositing.wire_ms_per_mb.bsbr"] = timed(
        lambda im: wire.pack_bsbr(im.intensity, im.opacity, im.bounding_rect(half)),
        lambda buf, im: wire.unpack_bsbr(buf))
    m["compositing.wire_ms_per_mb.bslc"] = timed(
        lambda im: wire.pack_bslc(im.intensity.ravel(), im.opacity.ravel(), indices),
        lambda buf, im: wire.unpack_bslc(buf, indices.size))
    m["compositing.wire_ms_per_mb.bsbrc"] = timed(
        lambda im: wire.pack_bsbrc(im.intensity, im.opacity, im.bounding_rect(half)),
        lambda buf, im: wire.unpack_bsbrc(buf))


def probe_serving(size: str, seed: int, out: dict) -> None:
    """``serving.service`` and ``serving.spool`` against a bare session."""
    from repro import RenderSession

    counts = COUNTS[size]
    m = out["metrics"]
    served = ServeInproc(size, seed, PROBE_BLOCK)
    served.setup()
    try:
        # Bare session, streamed job and unstreamed job on the same cameras,
        # each camera's three runs back to back in rotating order: what
        # differs between the columns is the path, not the viewpoint, the
        # scene memo or the minute the host was having.
        def job(stream: bool):
            def run(angles: dict, index: int) -> dict:
                served.stream = stream
                return served.run_op({"key": f"probe.{index}", "client": 0,
                                      "index": 10_000 + index, "camera": angles})
            return run

        def bare(angles: dict, index: int) -> dict:
            t = time.perf_counter()
            session.submit(**angles)
            return {"ok": True, "ms": (time.perf_counter() - t) * 1e3}

        paths = {"bare": bare, "streamed": job(True), "unstreamed": job(False)}
        taken: dict[str, list[dict]] = {name: [] for name in paths}
        order = list(paths)
        with RenderSession(served.base) as session:
            for index, angles in enumerate(itertools.islice(
                    cameras(seed, "probe.serving", PROBE_BLOCK), counts["solo"] + 1)):
                for name in order:
                    record = paths[name](angles, index)
                    if index:  # the first camera warms all three paths up
                        taken[name].append(record)
                order.append(order.pop(0))
        served.stream = True
        streams = [served.ops(client) for client in range(2)]
        duo: list[dict] = []

        def client(index: int) -> None:
            for _ in range(counts["duo"]):
                duo.append(served.run_op(next(streams[index])))

        threads = [threading.Thread(target=client, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        out["ok"] = out["ok"] and all(
            r["ok"] for r in taken["streamed"] + taken["unstreamed"] + duo)
        ms = {name: [r["ms"] for r in records] for name, records in taken.items()}
        solo_ms = median(ms["streamed"])
        m["pipeline.session_ms_p50"] = median(ms["bare"])
        m["serving.service.solo_ms_p50"] = solo_ms
        m["serving.service.contention_ratio"] = median([r["ms"] for r in duo]) / solo_ms
        m["serving.service.overhead_ms"] = solo_ms - m["pipeline.session_ms_p50"]
        m["serving.service.peak_active"] = served.service.pool.peak_active
        m["serving.service.stream_cost_share"] = 1.0 - sum(ms["unstreamed"]) / sum(ms["streamed"])

        # What streaming one job's events costs to encode, and weighs.
        ticket = served.service.submit(
            "c0", stream=True, **next(cameras(seed, "probe.encode", PROBE_BLOCK)))
        events = list(ticket.stream(timeout=30.0))
        ticket.result(timeout=30.0)
        t = time.perf_counter()
        lines = [json.dumps(e.to_dict(job_id=ticket.job_id, session="c0")) for e in events]
        m["serving.service.stream_encode_ms_per_job"] = (time.perf_counter() - t) * 1e3
        m["serving.service.stream_events_per_job"] = len(events)
        m["serving.service.stream_bytes_per_job"] = sum(len(line) + 1 for line in lines)
    finally:
        served.close()

    tracer, records = _run_traced(ServeSpool(size, seed, PROBE_BLOCK), counts["spool"], out)
    for name in ("submit_job", "claim_wait", "result_write"):
        key = {"submit_job": "submit_write"}.get(name, name)
        m[f"serving.spool.{key}_ms_p50"] = median(
            [s.ms for s in _spans(tracer, "serving.spool", name)])
    m["serving.spool.bytes_per_job"] = tracer.counts["spool.bytes"] / tracer.counts["spool.jobs"]
    m["serving.spool.overhead_ms"] = median([r["ms"] for r in records]) - solo_ms


def probes_main(spec: dict) -> int:
    """Body of ``run.py --probes``: one JSON record on stdout."""
    os.makedirs(scratch_dir(os.getpid()), exist_ok=True)
    out = {"ev": "probes", "ok": True, "metrics": {}}
    for probe in (probe_volume_render, probe_pipeline, probe_compositing, probe_serving):
        probe(spec["size"], spec["seed"], out)
    print(json.dumps(out), flush=True)
    return 0 if out["ok"] else 1
