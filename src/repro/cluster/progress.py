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
run without one — that is tested.  A ``stage`` event's planes are
bit-identical to the corresponding
:class:`~repro.cluster.recovery.CheckpointSnapshot` image (both copy
the engine's image at the same post-stage point), and a ``tile``
event's pixels are the tile's *final* values (tile-routed tiles never
change after completion).

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
:meth:`ProgressEvent.to_dict` emits the ``repro.serve-event/2``
document the serving layer streams to clients (arrays as base64 with
dtype/shape, rects as ``[y0, x0, y1, x1]``).  The wire carries no pixel
the receiver cannot use: a ``stage`` document's planes are only the
rank's keep part — cropped to ``part_rect``, or gathered at
``part_indices`` — beside the ``frame_shape`` they came from, and
:func:`serve_event_from_dict` scatters them back into blank full-frame
planes, so the rebuilt event equals the in-process one *on the keep
part* (the only region a consumer reads).  ``tile`` and ``final``
planes travel whole and round-trip exactly.

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

from ..errors import DeadlineExceededError
from ..types import Rect

__all__ = [
    "SERVE_EVENT_SCHEMA",
    "ProgressEvent",
    "ProgressFeed",
    "serve_event_from_dict",
]

#: Schema tag of one streamed progress event document.
SERVE_EVENT_SCHEMA = "repro.serve-event/2"

#: Event kinds, in the order a clean run produces them.
_KINDS = ("stage", "tile", "final")


def _array_doc(arr: np.ndarray) -> dict[str, Any]:
    # ``tobytes`` lays a cropped (strided) view out in C order itself.
    return {
        "dtype": str(arr.dtype),
        "shape": list(arr.shape),
        "data": base64.b64encode(arr.tobytes()).decode("ascii"),
    }


def _array_from_doc(doc: dict[str, Any]) -> np.ndarray:
    raw = base64.b64decode(doc["data"])
    return np.frombuffer(raw, dtype=np.dtype(doc["dtype"])).reshape(
        tuple(int(v) for v in doc["shape"])
    ).copy()


def _gather_part(
    plane: np.ndarray, rect: Optional[Rect], indices: Optional[np.ndarray]
) -> np.ndarray:
    """The keep part of a stage event's full-frame plane."""
    if rect is not None:
        return plane[rect.y0 : rect.y1, rect.x0 : rect.x1]
    if indices is not None:
        return plane.ravel()[indices.ravel()]
    return plane  # no part recorded: the plane travels whole


def _scatter_part(
    part: np.ndarray,
    frame_shape: tuple[int, ...],
    rect: Optional[Rect],
    indices: Optional[np.ndarray],
) -> np.ndarray:
    """Inverse of :func:`_gather_part`: a blank full-frame plane holding
    ``part`` where it was taken from."""
    if rect is None and indices is None:
        return part
    plane = np.zeros(frame_shape, dtype=part.dtype)
    if rect is not None:
        plane[rect.y0 : rect.y1, rect.x0 : rect.x1] = part
    else:
        plane.ravel()[indices.ravel()] = part
    return plane


def _rect_doc(rect: Optional[Rect]) -> Optional[list[int]]:
    return None if rect is None else [rect.y0, rect.x0, rect.y1, rect.x1]


def _rect_from_doc(doc) -> Optional[Rect]:
    return None if doc is None else Rect(*(int(v) for v in doc))


@dataclass
class ProgressEvent:
    """One streamed partial-frame update.

    ``kind`` is ``"stage"`` (full-frame planes, valid on ``part_rect``
    or ``part_indices`` — the rank's keep part after exchange stage
    ``stage``), ``"tile"`` (tile-shaped planes holding ``rect``'s final
    pixels), or ``"final"`` (the assembled display image, flagged with
    the run's outcome).  ``t`` is substrate seconds since the producing
    engine started; ``coverage`` is the feed's monotone settled-fraction
    estimate at emission time.
    """

    seq: int
    kind: str
    rank: int
    t: float
    coverage: float
    intensity: np.ndarray
    opacity: np.ndarray
    stage: Optional[int] = None
    #: Position of ``stage`` in the schedule (0-based) and stage total.
    ordinal: Optional[int] = None
    num_stages: Optional[int] = None
    tile: Optional[int] = None
    #: Tile events: the frame rect the planes cover.
    rect: Optional[Rect] = None
    #: Stage events: the keep part the planes are valid on.
    part_rect: Optional[Rect] = None
    part_indices: Optional[np.ndarray] = None
    #: Final events: the declared outcome and its degradation flag.
    degraded: bool = False
    outcome: Optional[str] = None

    def to_dict(
        self, *, job_id: Optional[str] = None, session: Optional[str] = None
    ) -> dict[str, Any]:
        """Export as a ``repro.serve-event/2`` document.

        A ``stage`` event ships only its keep part (see the module
        docstring); the in-process event keeps its full-frame planes.
        """
        intensity, opacity = self.intensity, self.opacity
        if self.kind == "stage":
            intensity = _gather_part(intensity, self.part_rect, self.part_indices)
            opacity = _gather_part(opacity, self.part_rect, self.part_indices)
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
            "rect": _rect_doc(self.rect),
            "part_rect": _rect_doc(self.part_rect),
            "part_indices": (
                None if self.part_indices is None else _array_doc(self.part_indices)
            ),
            "degraded": self.degraded,
            "outcome": self.outcome,
            "intensity": _array_doc(intensity),
            "opacity": _array_doc(opacity),
        }
        if self.kind == "stage":
            doc["frame_shape"] = list(self.intensity.shape)
        if job_id is not None:
            doc["job_id"] = job_id
        if session is not None:
            doc["session"] = session
        return doc


def serve_event_from_dict(doc: dict[str, Any]) -> ProgressEvent:
    """Rebuild a :class:`ProgressEvent` from its streamed document."""
    from ..errors import ConfigurationError

    schema = doc.get("schema")
    if schema != SERVE_EVENT_SCHEMA:
        raise ConfigurationError(
            f"unsupported serve-event schema {schema!r} "
            f"(expected {SERVE_EVENT_SCHEMA!r})"
        )
    kind = str(doc["kind"])
    part_rect = _rect_from_doc(doc.get("part_rect"))
    part_indices = doc.get("part_indices")
    if part_indices is not None:
        part_indices = _array_from_doc(part_indices)
    intensity = _array_from_doc(doc["intensity"])
    opacity = _array_from_doc(doc["opacity"])
    if kind == "stage":
        frame_shape = tuple(int(v) for v in doc["frame_shape"])
        intensity = _scatter_part(intensity, frame_shape, part_rect, part_indices)
        opacity = _scatter_part(opacity, frame_shape, part_rect, part_indices)
    return ProgressEvent(
        seq=int(doc["seq"]),
        kind=kind,
        rank=int(doc["rank"]),
        t=float(doc["t"]),
        coverage=float(doc["coverage"]),
        intensity=intensity,
        opacity=opacity,
        stage=None if doc.get("stage") is None else int(doc["stage"]),
        ordinal=None if doc.get("ordinal") is None else int(doc["ordinal"]),
        num_stages=(
            None if doc.get("num_stages") is None else int(doc["num_stages"])
        ),
        tile=None if doc.get("tile") is None else int(doc["tile"]),
        rect=_rect_from_doc(doc.get("rect")),
        part_rect=part_rect,
        part_indices=part_indices,
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
        part,
        image,
        t: float,
    ) -> ProgressEvent:
        """One completed exchange stage on one rank (engine-driven).

        ``image`` is the engine's live full-frame :class:`SubImage`;
        the feed copies both planes *here*, at exactly the point the
        recovery layer would pickle a
        :class:`~repro.cluster.recovery.CheckpointSnapshot` — which is
        what makes streamed stage frames bit-identical to checkpoints.
        ``part`` is the schedule's keep part (rect- or index-shaped).
        """
        part_rect = getattr(part, "rect", None)
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
            part_rect=part_rect,
            part_indices=getattr(part, "indices", None),
            intensity=image.intensity.copy(),
            opacity=image.opacity.copy(),
            t=float(t),
        )

    def emit_tile(
        self,
        *,
        rank: int,
        tile: int,
        rect: Rect,
        intensity: np.ndarray,
        opacity: np.ndarray,
        frame_pixels: int,
        t: float,
    ) -> ProgressEvent:
        """One completed tile on its owner rank (tile-engine-driven).

        ``intensity``/``opacity`` are the tile's final pixel planes
        (shape ``rect.height x rect.width``); copied here.
        """
        with self._cond:
            self._frame_pixels = int(frame_pixels)
            self._tile_pixels += rect.area
        return self._append(
            "tile",
            rank=rank,
            tile=int(tile),
            rect=rect,
            intensity=np.array(intensity, copy=True),
            opacity=np.array(opacity, copy=True),
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
            intensity=image.intensity.copy(),
            opacity=image.opacity.copy(),
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
