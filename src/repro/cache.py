"""The on-disk render cache: one keyed ``.npz`` store under
``REPRO_CACHE_DIR``, bounded by LRU eviction.

One producer fills it: the render phase's per-rank subimages
(:class:`repro.pipeline.phases.RankRender`), which every pipeline run
and the experiment harness render through.  It goes through four
calls: :func:`cache_dir` (the directory, ``None`` = caching off),
:func:`entry_path` (SHA-256 of the key fields → file name under it),
:func:`load_entry` (arrays, or ``None`` on a miss or a corrupt file; a
hit bumps recency) and :func:`store_entry` (write a per-process temp
file, ``os.replace`` it into place, enforce the size cap).

The store is append-only by construction: every distinct (dataset,
viewpoint, rank count, extent) writes a new ``.npz``.  A one-shot CLI
run never notices, but a long-lived render service serving many camera
paths would grow the directory without bound, hence the cap:

* ``REPRO_CACHE_MAX_BYTES`` — optional size cap for the cache
  directory.  Unset/empty/non-positive means unbounded (the historical
  behaviour).  Suffixes ``k``/``m``/``g`` (binary, case-insensitive)
  are accepted: ``REPRO_CACHE_MAX_BYTES=512m``.
* :func:`enforce_cache_budget` — called after every cache store; while
  the cache entries exceed the cap it deletes the least-recently-used
  ``.npz`` entry (oldest mtime).  Cache *hits* bump the file's mtime
  (:func:`touch`), so recency means "last read", not "first written" —
  true LRU.

Only ``*.npz`` cache entries are considered: checkpoint snapshots
(``ckpt-*.pkl``) and any foreign files sharing the directory are never
touched, and the entry just written is exempt from its own enforcement
pass (evicting the bytes you are about to read would turn a cap smaller
than one entry into a store/evict livelock).

Eviction is best-effort like the rest of the cache: filesystem races
(another process evicting the same file) are swallowed, and the cap is
a high-water mark, not a hard guarantee — concurrent writers can
overshoot transiently.
"""

from __future__ import annotations

import hashlib
import os
import zlib
from typing import Optional
from zipfile import BadZipFile

import numpy as np

__all__ = [
    "CACHE_DIR_ENV",
    "CACHE_LIMIT_ENV",
    "cache_dir",
    "entry_path",
    "load_entry",
    "store_entry",
    "cache_budget",
    "parse_size",
    "touch",
    "enforce_cache_budget",
]

#: Environment variable naming the on-disk cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Environment variable capping the on-disk cache size in bytes.
CACHE_LIMIT_ENV = "REPRO_CACHE_MAX_BYTES"

_SUFFIXES = {"k": 1024, "m": 1024**2, "g": 1024**3}


def parse_size(text: str) -> Optional[int]:
    """Parse a byte size like ``"1048576"``, ``"512m"``, or ``"2G"``.

    Returns ``None`` for empty/unparseable/non-positive values — the
    cache treats all three as "no cap" rather than failing a render
    over a malformed knob.
    """
    text = text.strip().lower()
    if not text:
        return None
    factor = 1
    if text[-1] in _SUFFIXES:
        factor = _SUFFIXES[text[-1]]
        text = text[:-1]
    try:
        value = int(float(text) * factor)
    except ValueError:
        return None
    return value if value > 0 else None


def cache_budget() -> Optional[int]:
    """The configured cache cap in bytes, or ``None`` for unbounded."""
    return parse_size(os.environ.get(CACHE_LIMIT_ENV, ""))


def touch(path: str) -> None:
    """Mark a cache entry as just-used (best-effort mtime bump)."""
    try:
        os.utime(path, None)
    except OSError:
        pass


def cache_dir() -> Optional[str]:
    """Active on-disk cache directory, or ``None`` when caching is off."""
    return os.environ.get(CACHE_DIR_ENV, "").strip() or None


def entry_path(prefix: str, key_fields: tuple) -> Optional[str]:
    """``<cache_dir()>/<prefix>_<sha256 of key_fields>.npz``, or ``None``
    when caching is off."""
    root = cache_dir()
    if root is None:
        return None
    digest = hashlib.sha256(repr(key_fields).encode("utf-8")).hexdigest()[:24]
    return os.path.join(root, f"{prefix}_{digest}.npz")


def load_entry(path: str) -> Optional[dict[str, np.ndarray]]:
    """Every array of a cached entry; ``None`` on any miss/corruption."""
    if not os.path.exists(path):
        return None
    try:
        with np.load(path, allow_pickle=False) as archive:
            arrays = {name: archive[name] for name in archive.files}
    except (OSError, ValueError, KeyError, EOFError, BadZipFile, zlib.error):
        return None
    touch(path)  # LRU recency: a hit protects the entry from eviction
    return arrays


def store_entry(path: str, **arrays: np.ndarray) -> None:
    """Atomically persist ``arrays`` at ``path`` and enforce the cap."""
    root = os.path.dirname(path) or "."
    os.makedirs(root, exist_ok=True)
    # Per-process temp name: two processes storing one key never write
    # through each other's file.  It must end in .npz or np.savez
    # appends the suffix and breaks the rename.
    tmp = f"{path}.r{os.getpid()}.tmp.npz"
    try:
        np.savez_compressed(tmp, **arrays)
        os.replace(tmp, path)
    except OSError:
        # Cache is best-effort; never fail the render over it.
        if os.path.exists(tmp):
            os.remove(tmp)
        return
    enforce_cache_budget(root, keep=path)


def _entries(root: str) -> list[tuple[float, int, str]]:
    """``(mtime, size, path)`` for every cache entry under ``root``."""
    rows: list[tuple[float, int, str]] = []
    try:
        names = os.listdir(root)
    except OSError:
        return rows
    for name in names:
        if not name.endswith(".npz"):
            continue  # only cache entries; never checkpoints or foreign files
        path = os.path.join(root, name)
        try:
            st = os.stat(path)
        except OSError:
            continue
        rows.append((st.st_mtime, st.st_size, path))
    return rows


def enforce_cache_budget(
    root: str,
    max_bytes: Optional[int] = None,
    *,
    keep: Optional[str] = None,
) -> list[str]:
    """Evict least-recently-used ``.npz`` entries until the cache fits.

    ``max_bytes`` overrides the ``REPRO_CACHE_MAX_BYTES`` environment
    knob (``None`` reads it; no cap means no-op).  ``keep`` names one
    path exempt from eviction — the entry the caller just stored.
    Returns the evicted paths, oldest first.
    """
    budget = cache_budget() if max_bytes is None else max_bytes
    if budget is None or budget <= 0:
        return []
    rows = _entries(root)
    total = sum(size for _, size, _ in rows)
    if total <= budget:
        return []
    keep_abs = os.path.abspath(keep) if keep else None
    evicted: list[str] = []
    # Oldest mtime first; path breaks mtime ties deterministically.
    for mtime, size, path in sorted(rows, key=lambda row: (row[0], row[2])):
        if total <= budget:
            break
        if keep_abs is not None and os.path.abspath(path) == keep_abs:
            continue
        try:
            os.remove(path)
        except OSError:
            continue  # raced with another evictor; its bytes still freed
        total -= size
        evicted.append(path)
    if evicted:
        from . import perf

        perf.incr("cache.evictions", len(evicted))
    return evicted
