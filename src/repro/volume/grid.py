"""Regular-grid scalar volume container.

The paper's test samples are 8-bit CT volumes around ``256 x 256 x 110``.
:class:`VolumeGrid` stores a normalized ``float32`` scalar field indexed
``data[x, y, z]`` with unit voxel spacing; continuous sampling treats the
value as living at the voxel *center*, i.e. the field value at world
point ``p`` is the trilinear interpolation of ``data`` at index
coordinates ``p - 0.5``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from ..types import Extent3

__all__ = ["VolumeGrid"]


@dataclass(frozen=True)
class VolumeGrid:
    """A 3-D scalar field on a unit-spaced regular grid.

    Attributes
    ----------
    data:
        ``float32`` array of shape ``(nx, ny, nz)`` with values in
        ``[0, 1]``.
    name:
        Human-readable dataset name (used in reports).
    """

    data: np.ndarray
    name: str = "volume"

    def __post_init__(self) -> None:
        arr = np.asarray(self.data)
        if arr.ndim != 3:
            raise ConfigurationError(f"volume data must be 3-D, got shape {arr.shape}")
        if arr.size == 0:
            raise ConfigurationError("volume data must be non-empty")
        if not np.issubdtype(arr.dtype, np.floating):
            raise ConfigurationError(f"volume data must be floating point, got {arr.dtype}")
        lo = float(arr.min())
        hi = float(arr.max())
        if not np.isfinite(lo) or not np.isfinite(hi):
            raise ConfigurationError("volume data contains non-finite values")
        if lo < -1e-6 or hi > 1.0 + 1e-6:
            raise ConfigurationError(
                f"volume data must lie in [0, 1], got range [{lo:.4g}, {hi:.4g}]"
            )
        if arr.dtype != np.float32:
            object.__setattr__(self, "data", arr.astype(np.float32))

    # ---- geometry -----------------------------------------------------------
    @property
    def shape(self) -> tuple[int, int, int]:
        return tuple(self.data.shape)  # type: ignore[return-value]

    @property
    def num_voxels(self) -> int:
        return int(self.data.size)

    @property
    def center(self) -> np.ndarray:
        """World-space center of the volume's bounding box."""
        return np.asarray(self.shape, dtype=np.float64) / 2.0

    @property
    def diagonal(self) -> float:
        """Length of the bounding-box diagonal (sets the ray t-range)."""
        return float(np.linalg.norm(self.shape))

    def full_extent(self) -> Extent3:
        return Extent3.full(self.shape)

    # ---- acceleration structures ---------------------------------------------
    def occupancy_max(self, block: int = 8) -> np.ndarray:
        """Dilated block-maximum grid for empty-space skipping.

        ``occ[bx, by, bz]`` is an upper bound on every voxel a trilinear
        sample landing in block ``(bx, by, bz)`` can touch (the block
        plus one block of dilation in every direction).  A sample whose
        block bound is below the transfer function's zero-opacity
        threshold contributes exactly nothing, so the renderer skips
        interpolating it.

        ``block`` is a power of two: the levels are one pyramid, each the
        pairwise maximum of the one below, and a request caches every
        level it passes through — the renderer's coarse (8) request also
        leaves its fine (2) level behind.  Cached per instance; the
        harness renders 64 subvolumes of the same grid.
        """
        if block < 2 or block & (block - 1):
            raise ConfigurationError(f"block must be a power of two >= 2, got {block}")
        cache: dict[int, np.ndarray] = self.__dict__.setdefault("_occupancy_cache", {})
        if block not in cache:
            level, size = self.data, 1
            while size < block:
                level, size = _halve(level), size * 2
                if size not in cache:
                    cache[size] = _dilate(level)
        return cache[block]

    # ---- construction helpers -------------------------------------------------
    @staticmethod
    def from_field(values: np.ndarray, name: str = "volume") -> "VolumeGrid":
        """Clamp-and-normalize arbitrary float data into a grid."""
        arr = np.asarray(values, dtype=np.float32)
        return VolumeGrid(data=np.clip(arr, 0.0, 1.0), name=name)

    def describe(self) -> str:
        nz_frac = float((self.data > 0).mean())
        return (
            f"VolumeGrid(name={self.name!r}, shape={self.shape}, "
            f"nonzero={nz_frac:.1%}, mean={float(self.data.mean()):.4f})"
        )


def _halve(a: np.ndarray) -> np.ndarray:
    """Maximum over 2x2x2 blocks; a trailing odd slice stands alone, which
    is what edge-replication padding to a whole block would give."""
    for axis in range(3):
        index = (slice(None),) * axis
        odd = a[index + (slice(1, None, 2),)]
        a = np.array(a[index + (slice(0, None, 2),)])
        paired = a[index + (slice(0, odd.shape[axis]),)]
        np.maximum(paired, odd, out=paired)
    return a


def _dilate(a: np.ndarray) -> np.ndarray:
    """Separable 3-tap maximum: each block also bounds its 26 neighbours,
    so the ``+1`` voxel a trilinear stencil reads across a block edge is
    covered."""
    for axis in range(3):
        index = (slice(None),) * axis
        lo, hi = index + (slice(0, -1),), index + (slice(1, None),)
        out = a.copy()
        np.maximum(out[lo], a[hi], out=out[lo])
        np.maximum(out[hi], a[lo], out=out[hi])
        a = out
    return a
