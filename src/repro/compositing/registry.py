"""Name → compositor factory registry.

Methods are addressable two ways:

* **paper names and baselines** — the four paper methods (``bs``,
  ``bsbr``, ``bslc``, ``bsbrc``) and the value-RLE comparator
  ``bslcv`` are thin aliases over the schedule × codec engine
  (:data:`COMBO_ALIASES`); the related-work baselines no schedule
  expresses (``direct``, ``direct-async``, ``tree``, ``pipeline``)
  keep their dedicated classes;
* **schedule × codec combos** — ``"<schedule>:<codec>"`` strings such
  as ``radix-k:rect-rle`` or ``sectioned:raw``, instantiated through
  :class:`~repro.compositing.engine.ScheduledCompositor`.  Any
  compatible pair from :data:`SCHEDULES` × :data:`CODECS` works.

Factories accept the method's keyword options (``split_policy``,
``section``, ``radix``, ``tile``) and reject bad ones when they are
built; unknown names get a did-you-mean suggestion.
"""

from __future__ import annotations

import difflib
import inspect
from typing import Callable

from ..errors import ConfigurationError
from .base import Compositor

__all__ = [
    "register",
    "make_compositor",
    "make_scheduled",
    "make_tile_routed",
    "available_methods",
    "method_catalog",
    "PAPER_METHODS",
    "COMBO_ALIASES",
    "SCHEDULES",
    "CODECS",
    "TILE_ROUTED",
]

_REGISTRY: dict[str, Callable[..., Compositor]] = {}
_DESCRIPTIONS: dict[str, str] = {}

#: The four methods evaluated in the paper's tables, in table order.
PAPER_METHODS = ("bs", "bsbr", "bslc", "bsbrc")

#: Named methods that are schedule × codec coordinates: the paper's
#: four and the Ahrens & Painter comparator ``bslcv``.
COMBO_ALIASES: dict[str, tuple[str, str]] = {
    "bs": ("binary-swap", "raw"),
    "bsbr": ("binary-swap", "rect"),
    "bslc": ("sectioned", "rle"),
    "bsbrc": ("binary-swap", "rect-rle"),
    "bslcv": ("sectioned", "value-rle"),
}


def _load_planes():
    from .codec import (
        BoundingRectCodec,
        RawCodec,
        RectRLECodec,
        RunLengthCodec,
        ValueRunCodec,
    )
    from .schedule import (
        BinarySwapSchedule,
        DirectSendSchedule,
        RadixKSchedule,
        SectionedSchedule,
    )

    schedules = {
        "binary-swap": BinarySwapSchedule,
        "sectioned": SectionedSchedule,
        "direct-send": DirectSendSchedule,
        "radix-k": RadixKSchedule,
    }
    codecs = {
        "raw": RawCodec,
        "rect": BoundingRectCodec,
        "rle": RunLengthCodec,
        "rect-rle": RectRLECodec,
        "value-rle": ValueRunCodec,
    }
    return schedules, codecs


SCHEDULES, CODECS = _load_planes()

#: Pseudo-schedule name selecting the asynchronous tile-routed engine
#: (``"tile-routed:<codec>"``); it is an execution model peer to
#: :class:`~repro.compositing.engine.ScheduledCompositor`, not an entry
#: of :data:`SCHEDULES`.
TILE_ROUTED = "tile-routed"


def register(name: str, factory: Callable[..., Compositor], *, description: str = "") -> None:
    """Register a compositor factory under ``name`` (lowercase)."""
    key = name.lower()
    if key in _REGISTRY:
        raise ConfigurationError(f"compositor {name!r} already registered")
    _REGISTRY[key] = factory
    if description:
        _DESCRIPTIONS[key] = description


def _suggestion(name: str, candidates) -> str:
    close = difflib.get_close_matches(name, list(candidates), n=1, cutoff=0.5)
    return f" — did you mean {close[0]!r}?" if close else ""


def _compatible_codecs(schedule_name: str) -> list[str]:
    kind = SCHEDULES[schedule_name].part_kind
    return sorted(c for c, cls in CODECS.items() if kind in cls.supports)


def _tile_codecs() -> list[str]:
    return sorted(c for c, cls in CODECS.items() if "rect" in cls.supports)


def _resolve_tile_routed(codec_name: str) -> None:
    """Validate a ``tile-routed:<codec>`` spec (raises on failure)."""
    if codec_name not in CODECS:
        raise ConfigurationError(
            f"unknown codec {codec_name!r}; available codecs: {sorted(CODECS)}"
            + _suggestion(codec_name, CODECS)
        )
    if "rect" not in CODECS[codec_name].supports:
        raise ConfigurationError(
            f"codec {codec_name!r} cannot carry the rect-shaped tiles of "
            f"the tile-routed engine; compatible codecs: {_tile_codecs()}"
        )


def _resolve_combo(schedule_name: str, codec_name: str) -> None:
    """Validate a combo's names and compatibility (raises on failure)."""
    if schedule_name not in SCHEDULES:
        candidates = sorted(SCHEDULES) + [TILE_ROUTED]
        raise ConfigurationError(
            f"unknown schedule {schedule_name!r}; available schedules: "
            f"{candidates}" + _suggestion(schedule_name, candidates)
        )
    if codec_name not in CODECS:
        raise ConfigurationError(
            f"unknown codec {codec_name!r}; available codecs: {sorted(CODECS)}"
            + _suggestion(codec_name, CODECS)
        )
    if SCHEDULES[schedule_name].part_kind not in CODECS[codec_name].supports:
        raise ConfigurationError(
            f"codec {codec_name!r} cannot carry the "
            f"{SCHEDULES[schedule_name].part_kind!r} parts of schedule "
            f"{schedule_name!r}; compatible codecs: "
            f"{_compatible_codecs(schedule_name)}"
        )


def make_scheduled(
    schedule_name: str, codec_name: str, *, name: str | None = None, **options
) -> Compositor:
    """Build a :class:`ScheduledCompositor` for ``schedule × codec``.

    Options go to the schedule constructor (codecs take no options).
    """
    from .engine import ScheduledCompositor

    _resolve_combo(schedule_name, codec_name)
    schedule_cls = SCHEDULES[schedule_name]
    accepted = set(inspect.signature(schedule_cls.__init__).parameters) - {"self"}
    unknown = set(options) - accepted
    if unknown:
        raise ConfigurationError(
            f"method {schedule_name}:{codec_name} does not accept option(s) "
            f"{sorted(unknown)}; schedule options: {sorted(accepted)}"
        )
    return ScheduledCompositor(schedule_cls(**options), CODECS[codec_name](), name=name)


def make_tile_routed(
    codec_name: str, *, name: str | None = None, **options
) -> Compositor:
    """Build a :class:`~repro.compositing.tile_engine.TileRoutedCompositor`.

    Engine option: ``tile`` (tile edge length).
    """
    from .tile_engine import TileRoutedCompositor

    _resolve_tile_routed(codec_name)
    accepted = {"tile"}
    unknown = set(options) - accepted
    if unknown:
        raise ConfigurationError(
            f"method {TILE_ROUTED}:{codec_name} does not accept option(s) "
            f"{sorted(unknown)}; engine options: {sorted(accepted)}"
        )
    return TileRoutedCompositor(CODECS[codec_name](), name=name, **options)


def make_compositor(name: str, **options) -> Compositor:
    """Instantiate a method by registry name or ``schedule:codec`` spec."""
    key = name.lower()
    if ":" in key:
        schedule_name, _, codec_name = key.partition(":")
        if schedule_name == TILE_ROUTED:
            return make_tile_routed(codec_name, **options)
        return make_scheduled(schedule_name, codec_name, **options)
    factory = _REGISTRY.get(key)
    if factory is None:
        raise ConfigurationError(
            f"unknown compositing method {name!r}; available: "
            f"{available_methods()}" + _suggestion(key, available_methods())
        )
    return factory(**options)


def _combo_names() -> list[str]:
    return [
        f"{s}:{c}"
        for s in sorted(SCHEDULES)
        for c in sorted(CODECS)
        if SCHEDULES[s].part_kind in CODECS[c].supports
    ] + [f"{TILE_ROUTED}:{c}" for c in _tile_codecs()]


def available_methods() -> list[str]:
    """Every addressable method: registered names plus valid combos."""
    return sorted(set(_REGISTRY) | set(_combo_names()))


def method_catalog() -> dict[str, str]:
    """Method name → one-line description (drives the CLI help text)."""
    catalog = dict(_DESCRIPTIONS)
    for combo in _combo_names():
        schedule_name, _, codec_name = combo.partition(":")
        if schedule_name == TILE_ROUTED:
            catalog[combo] = (
                "asynchronous tile routing, no stage barriers; "
                f"{CODECS[codec_name].description}"
            )
            continue
        catalog[combo] = (
            f"{SCHEDULES[schedule_name].description}; "
            f"{CODECS[codec_name].description}"
        )
    for key in _REGISTRY:
        catalog.setdefault(key, "")
    return dict(sorted(catalog.items()))


def _alias_factory(alias: str, schedule_name: str, codec_name: str):
    def build(**options) -> Compositor:
        return make_scheduled(schedule_name, codec_name, name=alias, **options)

    return build


def _register_builtins() -> None:
    for alias, (schedule_name, codec_name) in COMBO_ALIASES.items():
        role = "paper method" if alias in PAPER_METHODS else "comparator"
        register(
            alias,
            _alias_factory(alias, schedule_name, codec_name),
            description=(
                f"{role} (= {schedule_name}:{codec_name}): "
                f"{CODECS[codec_name].description}"
            ),
        )

    from .baselines import (
        BinaryTreeCompression,
        DirectSend,
        DirectSendAsync,
        ParallelPipeline,
    )

    register(
        "direct",
        DirectSend,
        description="direct send of row strips, blocking XOR rounds",
    )
    register(
        "direct-async",
        DirectSendAsync,
        description="direct send of row strips, non-blocking",
    )
    register(
        "tree",
        BinaryTreeCompression,
        description="binary-tree reduction to a single root",
    )
    register(
        "pipeline",
        ParallelPipeline,
        description="ring pipeline with dual accumulators",
    )


_register_builtins()
