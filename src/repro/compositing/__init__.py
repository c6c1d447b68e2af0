"""Core contribution: sparse binary-swap image compositing methods.

Compositing factors into two orthogonal planes (see ``DESIGN.md`` §5.2):

* a **schedule** (:mod:`~repro.compositing.schedule`) decides who
  exchanges which image part at each stage — binary-swap, sectioned,
  direct-send and the generalized radix-k;
* a **codec** (:mod:`~repro.compositing.codec`) decides how a part
  crosses the wire and what modelled time it charges — raw, bounding
  rect, run-length, rect + RLE.

:class:`~repro.compositing.engine.ScheduledCompositor` is the one
implementation that runs any compatible pair; the paper's four methods
(BS, BSBR, BSLC, BSBRC) and the value-RLE comparator ``bslcv`` are
registry aliases over these planes.  What the hand-written method
classes they replaced produced — pixels, per-stage counters, modelled
clocks — is pinned in ``tests/data/seed_counters.json``.  Also here:
the related-work baselines no schedule expresses, the asynchronous
tile-routed engine, the *over* operator, the mask and value RLE codecs,
bounding-rectangle machinery and the byte-level wire formats (one
kernel per concept, :mod:`~repro.compositing.wire`).
"""

from .base import CompositeOutcome, Compositor, OwnedPiece, composite_rect_pixels, split_axis_for
from .baselines import (
    BinaryTreeCompression,
    DirectSend,
    DirectSendAsync,
    ParallelPipeline,
    strip_rect,
)
from .folding import FoldedCompositor
from .codec import (
    BoundingRectCodec,
    PixelCodec,
    RawCodec,
    RectRLECodec,
    RunLengthCodec,
    ValueRunCodec,
)
from .engine import ScheduledCompositor
from .value_rle import (
    VALUE_RUN_BYTES,
    pack_value_runs,
    unpack_value_runs,
    value_rle_decode,
    value_rle_encode,
)
from .over import is_blank, nonblank_mask, over, over_inplace, over_scalar
from .rect import find_bounding_rect
from .registry import (
    CODECS,
    COMBO_ALIASES,
    PAPER_METHODS,
    SCHEDULES,
    available_methods,
    make_compositor,
    make_scheduled,
    method_catalog,
    register,
)
from .schedule import (
    DEFAULT_SECTION,
    BinarySwapSchedule,
    DirectSendSchedule,
    IndexPart,
    RadixKSchedule,
    RectPart,
    Schedule,
    SectionedSchedule,
    parse_radix,
)
from .rle import MAX_RUN, count_nonblank, rle_decode_mask, rle_encode_mask
from .wire import (
    WireMessage,
    pack_bs,
    pack_bsbr,
    pack_bsbrc,
    pack_bslc,
    pack_pixels,
    pack_rle,
    unpack_bs,
    unpack_bsbr,
    unpack_bsbrc,
    unpack_bslc,
    unpack_pixels,
    unpack_rle,
)

__all__ = [
    "BinarySwapSchedule",
    "BinaryTreeCompression",
    "BoundingRectCodec",
    "CODECS",
    "COMBO_ALIASES",
    "CompositeOutcome",
    "Compositor",
    "DEFAULT_SECTION",
    "DirectSend",
    "DirectSendAsync",
    "DirectSendSchedule",
    "FoldedCompositor",
    "IndexPart",
    "MAX_RUN",
    "OwnedPiece",
    "PAPER_METHODS",
    "ParallelPipeline",
    "PixelCodec",
    "RadixKSchedule",
    "RawCodec",
    "RectPart",
    "RectRLECodec",
    "RunLengthCodec",
    "SCHEDULES",
    "Schedule",
    "ScheduledCompositor",
    "SectionedSchedule",
    "VALUE_RUN_BYTES",
    "ValueRunCodec",
    "WireMessage",
    "available_methods",
    "composite_rect_pixels",
    "count_nonblank",
    "find_bounding_rect",
    "is_blank",
    "make_compositor",
    "make_scheduled",
    "method_catalog",
    "nonblank_mask",
    "over",
    "over_inplace",
    "over_scalar",
    "pack_bs",
    "pack_bsbr",
    "pack_bsbrc",
    "pack_bslc",
    "pack_pixels",
    "pack_rle",
    "pack_value_runs",
    "parse_radix",
    "register",
    "rle_decode_mask",
    "rle_encode_mask",
    "split_axis_for",
    "strip_rect",
    "unpack_bs",
    "unpack_bsbr",
    "unpack_bsbrc",
    "unpack_bslc",
    "unpack_pixels",
    "unpack_rle",
    "unpack_value_runs",
    "value_rle_decode",
    "value_rle_encode",
]
