"""Client-side progressive frame assembly from streamed serve events.

A consumer of a :class:`~repro.cluster.progress.ProgressFeed` (or of a
``repro.serve-event/4`` document stream) folds events into a
:class:`ProgressiveFrame`: the best currently-known approximation of
the final display image.  Every event carries the pixels of one part,
and every kind folds through the one owned-pixel scatter,
:func:`~repro.pipeline.assemble.scatter_tile`: tile events write their
rect's *final* pixels; stage events write the emitting rank's keep part
(valid partial composites that sharpen stage by stage); the ``final``
event covers the whole frame and carries the run's declared outcome.

The accumulator is intentionally dumb — it trusts the feed's ordering
and monotone ``coverage`` — which is what makes it suitable both for a
live progressive display and for the CI smoke test that replays a
recorded event log and asserts the end state is bit-identical to the
one-shot render.
"""

from __future__ import annotations

from typing import Optional

from ..cluster.progress import ProgressEvent, serve_event_from_dict
from ..pipeline.assemble import scatter_tile
from ..render.image import SubImage

__all__ = ["ProgressiveFrame"]


class ProgressiveFrame:
    """Fold progress events into a best-known partial display image."""

    @classmethod
    def replay(cls, docs, height: int, width: int) -> "ProgressiveFrame":
        """Fold a recorded ``repro.serve-event/4`` document stream.

        Pairs with :func:`repro.serving.spool.read_events`, which
        already drops a torn trailing record from an interrupted
        writer — so replaying a crashed server's partial event log
        yields the frame as of the last *complete* event, never a JSON
        crash; a complete line with a damaged body raises instead.
        """
        frame = cls(height, width)
        for doc in docs:
            frame.apply(serve_event_from_dict(doc))
        return frame

    def __init__(self, height: int, width: int):
        self.image = SubImage.blank(height, width)
        #: Monotone coverage as reported by the last applied event.
        self.coverage = 0.0
        self.events_applied = 0
        #: Set once a ``final`` event lands.
        self.finalized = False
        self.degraded = False
        self.outcome: Optional[str] = None

    def apply(self, event: ProgressEvent) -> None:
        """Fold one event into the frame (events in feed order)."""
        scatter_tile(self.image, event.part, event.intensity, event.opacity)
        if event.kind == "final":
            self.finalized = True
            self.degraded = event.degraded
            self.outcome = event.outcome
        self.coverage = max(self.coverage, event.coverage)
        self.events_applied += 1
