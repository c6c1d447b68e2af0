"""The streaming progress plane: partial frames the moment they exist.

The compositing engines already *produce* progressively refined partial
images — :class:`~repro.compositing.engine.ScheduledCompositor`
snapshots a valid partial frame after every exchange stage (the same
state the recovery checkpoints persist), and
:class:`~repro.compositing.tile_engine.TileRoutedCompositor` finalizes
whole tiles one at a time — but until now both landed on disk or in
post-hoc timeline metadata.  :class:`ProgressFeed` routes them to a
live consumer instead: a feed installed on the rank contexts (via
:meth:`~repro.cluster.protocol.BaseRankContext.install_progress`)
receives one :class:`ProgressEvent` per completed exchange stage, per
completed tile, and one ``final`` event when the assembled display
image exists.

Bit-exactness contract
----------------------
Emission copies and never charges: feeds add **zero** model time, no
byte/message counters, and no accounting notes, so a run with a feed
installed is bit-identical (pixels and integer counters) to the same
run without one — that is tested.  Every event carries one ``part``
of the frame and only that part's pixels: a ``stage`` event the rank's
keep part (a ``RectPart`` or an ``IndexPart``), bit-identical to the
corresponding :class:`~repro.cluster.recovery.CheckpointSnapshot` (both
hold the one :class:`~repro.compositing.base.OwnedPiece` the engine cuts
after the stage); a ``tile`` event its tile's rect, holding the tile's
*final* values (the owner's outcome piece for that tile); a ``final``
event the whole frame.

Coverage
--------
Every event carries a monotone non-decreasing ``coverage`` in ``[0,
1]`` — the feed's estimate of how much of the final frame is settled:
completed-tile pixels over frame pixels for tile-routed runs, completed
(rank, stage) pairs over the total for stage-synchronous runs, clamped
to never regress (a degraded re-run restarts its stage count, but a
progressive display never takes pixels back).  ``final`` is always
coverage 1.0 and carries the run's declared outcome, so a ``degraded``
partial frame arrives *flagged*, not silently.

Serialization
-------------
:meth:`ProgressEvent.to_dict` emits the ``repro.serve-event/4``
document the serving layer streams to clients: the part's address,
``{"rect": [y0, x0, y1, x1]}`` or ``{"index": [frame_pixels, section,
stride, offset]}``, and ``pixels``, the base64 ``pack_rle`` body of the
planes (§3.3: run codes over the part's blank mask, then the non-blank
pixels only).  :func:`serve_event_from_dict` decodes it into zero planes
shaped by the part (a damaged body is a ``WireFormatError``), and a
consumer folds it with the one owned-pixel scatter
(:class:`~repro.serving.frames.ProgressiveFrame`).  The spool's writer
thread runs outside every job's ``perf.scope``, so ``pack_rle``'s
``wire.packed_pixel_bytes`` bump lands in the process default registry.

Threading: the feed is locked and :meth:`ProgressFeed.stream` is a
blocking generator, so a service thread can stream a job's frames while
the render runs on a pool worker.  The feed is simulator-oriented (all
ranks in one process share it); real transports reject a live feed at
the system layer.
"""

from __future__ import annotations

import base64
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional

import numpy as np

from ..compositing.base import OwnedPiece
from ..compositing.schedule import IndexPart, RectPart
from ..compositing.wire import pack_rle, unpack_rle
from ..errors import ConfigurationError, DeadlineExceededError, WireFormatError
from ..types import Rect

__all__ = [
    "SERVE_EVENT_SCHEMA",
    "ProgressEvent",
    "ProgressFeed",
    "serve_event_from_dict",
]

#: Schema tag of one streamed progress event document.
SERVE_EVENT_SCHEMA = "repro.serve-event/4"


def _pixels_doc(intensity: np.ndarray, opacity: np.ndarray) -> str:
    """The planes as one base64 RLE body (run codes, non-blank pixels)."""
    return base64.b64encode(pack_rle(intensity, opacity).buffer).decode("ascii")


def _planes_from_doc(part: "RectPart | IndexPart", pixels: str) -> dict[str, np.ndarray]:
    """Zero planes shaped by the part, the body's pixels scattered in."""
    try:
        body = base64.b64decode(pixels, validate=True)
    except ValueError as exc:
        raise WireFormatError(f"serve-event pixels are not base64: {exc}") from exc
    mask, *values = unpack_rle(body, part.num_pixels, what="serve-event pixels")
    planes = np.zeros((2, part.num_pixels))
    planes[:, mask] = values
    shape = (part.rect.height, part.rect.width) if part.kind == "rect" else (-1,)
    return {"intensity": planes[0].reshape(shape), "opacity": planes[1].reshape(shape)}


def _part_doc(part: "RectPart | IndexPart") -> dict[str, list[int]]:
    """A part's address: a rect's corners, or an index part's four integers."""
    if part.kind == "rect":
        rect = part.rect
        return {"rect": [rect.y0, rect.x0, rect.y1, rect.x1]}
    return {"index": [part.frame_pixels, part.section, part.stride, part.offset]}


def _part_from_doc(doc: dict[str, Any]) -> "RectPart | IndexPart":
    if "rect" in doc:
        return RectPart(Rect(*(int(v) for v in doc["rect"])))
    return IndexPart(*(int(v) for v in doc["index"]))


@dataclass
class ProgressEvent:
    """One streamed partial-frame update: final or partial pixels of one
    ``part`` of the frame.

    ``kind`` is ``"stage"`` (the rank's keep part after exchange stage
    ``stage``: a :class:`~repro.compositing.schedule.RectPart` or
    :class:`~repro.compositing.schedule.IndexPart`), ``"tile"`` (a
    ``RectPart`` holding the tile's final pixels), or ``"final"`` (a
    ``RectPart`` of the whole frame: the assembled display image,
    flagged with the run's outcome).  The planes hold ``part``'s values
    only — a rect's ``(h, w)`` block, or an index part's values as one
    row in part order.  ``t`` is substrate seconds since the producing
    engine started; ``coverage`` is the feed's monotone settled-fraction
    estimate at emission time.
    """

    seq: int
    kind: str
    rank: int
    t: float
    coverage: float
    part: "RectPart | IndexPart"
    intensity: np.ndarray
    opacity: np.ndarray
    stage: Optional[int] = None
    #: Position of ``stage`` in the schedule (0-based) and stage total.
    ordinal: Optional[int] = None
    num_stages: Optional[int] = None
    tile: Optional[int] = None
    #: Final events: the declared outcome and its degradation flag.
    degraded: bool = False
    outcome: Optional[str] = None

    def to_dict(
        self, *, job_id: Optional[str] = None, session: Optional[str] = None
    ) -> dict[str, Any]:
        """Export as a ``repro.serve-event/4`` document."""
        doc: dict[str, Any] = {
            "schema": SERVE_EVENT_SCHEMA,
            "seq": self.seq,
            "kind": self.kind,
            "rank": self.rank,
            "t": self.t,
            "coverage": self.coverage,
            "stage": self.stage,
            "ordinal": self.ordinal,
            "num_stages": self.num_stages,
            "tile": self.tile,
            "part": _part_doc(self.part),
            "degraded": self.degraded,
            "outcome": self.outcome,
            "pixels": _pixels_doc(self.intensity, self.opacity),
        }
        if job_id is not None:
            doc["job_id"] = job_id
        if session is not None:
            doc["session"] = session
        return doc


def serve_event_from_dict(doc: dict[str, Any]) -> ProgressEvent:
    """Rebuild a :class:`ProgressEvent` from its streamed document."""
    schema = doc.get("schema")
    if schema != SERVE_EVENT_SCHEMA:
        raise ConfigurationError(
            f"unsupported serve-event schema {schema!r} "
            f"(expected {SERVE_EVENT_SCHEMA!r})"
        )
    missing = [key for key in ("part", "pixels") if key not in doc]
    if missing:
        raise WireFormatError(
            f"serve-event document lacks {', '.join(missing)} "
            f"(kind {doc.get('kind')!r})"
        )
    part = _part_from_doc(doc["part"])
    return ProgressEvent(
        seq=int(doc["seq"]),
        kind=str(doc["kind"]),
        rank=int(doc["rank"]),
        t=float(doc["t"]),
        coverage=float(doc["coverage"]),
        part=part,
        **_planes_from_doc(part, doc["pixels"]),
        **{key: None if doc.get(key) is None else int(doc[key])
           for key in ("stage", "ordinal", "num_stages", "tile")},
        degraded=bool(doc.get("degraded", False)),
        outcome=doc.get("outcome"),
    )


@dataclass
class ProgressFeed:
    """Live, ordered stream of :class:`ProgressEvent` for one render job.

    Install on the run via ``SortLastSystem.run(progress=feed)`` (or a
    :class:`~repro.pipeline.session.RenderJob`); consume with
    :meth:`stream` from another thread, or read :attr:`events` after the
    run.  The producer side (`emit_*`) is driven by the compositing
    engines; :meth:`close` ends the stream.
    """

    events: list[ProgressEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._cond = threading.Condition()
        self._closed = False
        self._coverage = 0.0
        # Deadline enforcement hook: an absolute time.monotonic() point
        # set by the serving layer (set_deadline).  Checked on every
        # producer-side emit — the engines call emit_stage/emit_tile at
        # exactly their checkpoint/tile boundaries, so an expired
        # deadline aborts the run at the next boundary without adding
        # any new hook surface to the engines themselves.
        self._deadline_at: "float | None" = None
        self._deadline_s: "float | None" = None
        # Stage accounting: rank -> completed-stage count (this attempt).
        self._stage_done: dict[int, int] = {}
        self._stage_total: Optional[int] = None
        self._num_ranks: Optional[int] = None
        # Tile accounting: settled pixels (this attempt).
        self._tile_pixels = 0
        self._frame_pixels: Optional[int] = None

    # ---- consumer side -----------------------------------------------------
    @property
    def coverage(self) -> float:
        """The latest (monotone) settled-fraction estimate."""
        with self._cond:
            return self._coverage

    @property
    def closed(self) -> bool:
        with self._cond:
            return self._closed

    def stream(self, timeout: Optional[float] = None) -> Iterator[ProgressEvent]:
        """Yield events in order, blocking for new ones until closed.

        ``timeout`` bounds each wait for the *next* event; expiry ends
        the stream early (a serving front end's liveness guard).
        """
        index = 0
        while True:
            with self._cond:
                while index >= len(self.events) and not self._closed:
                    if not self._cond.wait(timeout):
                        return
                if index >= len(self.events):
                    return  # closed and drained
                event = self.events[index]
            index += 1
            yield event

    def close(self) -> None:
        """End the stream; pending :meth:`stream` consumers drain and stop."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def set_deadline(self, deadline_at: "float | None",
                     deadline_s: "float | None" = None) -> None:
        """Arm (or clear) the feed's deadline.

        ``deadline_at`` is an absolute ``time.monotonic()`` instant; once
        it passes, the next ``stage``/``tile`` emission raises
        :class:`~repro.errors.DeadlineExceededError` *inside the engine*,
        aborting the run at a checkpoint/tile boundary.  ``final``
        emissions are exempt: if the display image already exists,
        delivering it beats dropping it.  ``deadline_s`` is the original
        budget, carried into the error for reporting.
        """
        with self._cond:
            self._deadline_at = deadline_at
            self._deadline_s = deadline_s

    # ---- producer side -----------------------------------------------------
    def _coverage_candidate(self) -> float:
        parts: list[float] = []
        if self._stage_total and self._num_ranks:
            parts.append(
                sum(self._stage_done.values())
                / float(self._stage_total * self._num_ranks)
            )
        if self._frame_pixels:
            parts.append(self._tile_pixels / float(self._frame_pixels))
        return max(parts, default=0.0)

    def _append(self, event_kind: str, coverage: Optional[float] = None, **fields) -> ProgressEvent:
        with self._cond:
            if event_kind != "final" and self._deadline_at is not None:
                now = time.monotonic()
                if now >= self._deadline_at:
                    budget = self._deadline_s
                    raise DeadlineExceededError(
                        "job ran past its deadline"
                        + (f" of {budget}s" if budget is not None else "")
                        + f" (checked at a {event_kind} boundary)",
                        deadline_s=budget,
                        elapsed=(
                            None if budget is None
                            else budget + (now - self._deadline_at)
                        ),
                    )
            candidate = self._coverage_candidate() if coverage is None else coverage
            self._coverage = max(self._coverage, min(1.0, candidate))
            event = ProgressEvent(
                seq=len(self.events),
                kind=event_kind,
                coverage=self._coverage,
                **fields,
            )
            self.events.append(event)
            self._cond.notify_all()
            return event

    def emit_stage(
        self,
        *,
        rank: int,
        stage: int,
        ordinal: int,
        num_stages: int,
        num_ranks: int,
        piece: OwnedPiece,
        t: float,
    ) -> ProgressEvent:
        """One completed exchange stage on one rank (engine-driven).

        ``piece`` is the schedule's keep part (rect- or index-shaped)
        and a copy of its post-stage pixels, cut at exactly the point
        the recovery layer pickles a
        :class:`~repro.cluster.recovery.CheckpointSnapshot` of the same
        piece — which is what makes streamed stage frames bit-identical
        to checkpoints.
        """
        with self._cond:
            self._stage_total = int(num_stages)
            self._num_ranks = int(num_ranks)
            done = self._stage_done.get(rank, 0)
            self._stage_done[rank] = max(done, int(ordinal) + 1)
        return self._append(
            "stage",
            rank=rank,
            stage=int(stage),
            ordinal=int(ordinal),
            num_stages=int(num_stages),
            **piece._asdict(),
            t=float(t),
        )

    def emit_tile(
        self,
        *,
        rank: int,
        tile: int,
        piece: OwnedPiece,
        frame_pixels: int,
        t: float,
    ) -> ProgressEvent:
        """One completed tile on its owner rank (tile-engine-driven):
        ``piece`` is the tile's rect and its final pixels."""
        with self._cond:
            self._frame_pixels = int(frame_pixels)
            self._tile_pixels += piece.part.num_pixels
        return self._append(
            "tile",
            rank=rank,
            tile=int(tile),
            **piece._asdict(),
            t=float(t),
        )

    def emit_final(
        self,
        *,
        image,
        degraded: bool = False,
        outcome: Optional[str] = None,
        t: float = 0.0,
    ) -> ProgressEvent:
        """The assembled display image (system-layer-driven, rank 0)."""
        return self._append(
            "final",
            coverage=1.0,
            rank=0,
            degraded=bool(degraded),
            outcome=outcome,
            **OwnedPiece.cut(RectPart(image.full_rect()), image)._asdict(),
            t=float(t),
        )

    def reset_attempt(self) -> None:
        """Start a fresh accounting attempt (recovery re-run).

        Clears the per-attempt stage/tile accumulators but keeps the
        event log, the sequence numbers, and the monotone coverage —
        a degraded re-run streams new frames without ever reporting
        regressed coverage.
        """
        with self._cond:
            self._stage_done.clear()
            self._stage_total = None
            self._num_ranks = None
            self._tile_pixels = 0
            self._frame_pixels = None
