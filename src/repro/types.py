"""Small shared value types used across the package.

These are deliberately dependency-light (numpy only) so that every
subpackage — substrate and core alike — can import them without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = ["Rect", "Extent3", "Axis", "PIXEL_BYTES", "RECT_INFO_BYTES", "RLE_CODE_BYTES"]

#: Bytes per pixel on the wire: intensity + opacity as two float64 (paper §3.1).
PIXEL_BYTES = 16
#: Bytes of bounding-rectangle info: four int16 corner coordinates (paper §3.2).
RECT_INFO_BYTES = 8
#: Bytes per run-length code element: one uint16 (paper §3.3).
RLE_CODE_BYTES = 2


class Axis(Enum):
    """Axis of a 3D volume (index into ``(x, y, z)`` ordering)."""

    X = 0
    Y = 1
    Z = 2


@dataclass(frozen=True, slots=True)
class Rect:
    """Half-open axis-aligned rectangle in image coordinates.

    ``y0 <= y < y1`` rows and ``x0 <= x < x1`` columns.  The empty
    rectangle is canonically ``Rect(0, 0, 0, 0)`` but any rect with
    non-positive extent is treated as empty.
    """

    y0: int
    x0: int
    y1: int
    x1: int

    # ---- basic geometry -------------------------------------------------
    @property
    def height(self) -> int:
        return max(0, self.y1 - self.y0)

    @property
    def width(self) -> int:
        return max(0, self.x1 - self.x0)

    @property
    def area(self) -> int:
        return self.height * self.width

    @property
    def is_empty(self) -> bool:
        return self.y1 <= self.y0 or self.x1 <= self.x0

    @staticmethod
    def empty() -> "Rect":
        return Rect(0, 0, 0, 0)

    @staticmethod
    def full(height: int, width: int) -> "Rect":
        return Rect(0, 0, height, width)

    def normalized(self) -> "Rect":
        """Canonicalize: any empty rect becomes ``Rect.empty()``."""
        return Rect.empty() if self.is_empty else self

    # ---- set-like operations --------------------------------------------
    def intersect(self, other: "Rect") -> "Rect":
        r = Rect(
            max(self.y0, other.y0),
            max(self.x0, other.x0),
            min(self.y1, other.y1),
            min(self.x1, other.x1),
        )
        return r.normalized()

    def union(self, other: "Rect") -> "Rect":
        """Smallest rect covering both (empty rects are identity elements)."""
        if self.is_empty:
            return other.normalized()
        if other.is_empty:
            return self.normalized()
        return Rect(
            min(self.y0, other.y0),
            min(self.x0, other.x0),
            max(self.y1, other.y1),
            max(self.x1, other.x1),
        )

    def contains(self, other: "Rect") -> bool:
        if other.is_empty:
            return True
        if self.is_empty:
            return False
        return (
            self.y0 <= other.y0
            and self.x0 <= other.x0
            and self.y1 >= other.y1
            and self.x1 >= other.x1
        )

    def contains_point(self, y: int, x: int) -> bool:
        return self.y0 <= y < self.y1 and self.x0 <= x < self.x1

    # ---- slicing helpers --------------------------------------------------
    def slices(self) -> tuple[slice, slice]:
        """Return ``(row_slice, col_slice)`` for indexing image arrays."""
        return slice(self.y0, self.y1), slice(self.x0, self.x1)

    def shifted(self, dy: int, dx: int) -> "Rect":
        if self.is_empty:
            return Rect.empty()
        return Rect(self.y0 + dy, self.x0 + dx, self.y1 + dy, self.x1 + dx)

    def split(self, axis: int) -> tuple["Rect", "Rect"]:
        """Split along the centerline into two halves (paper alg. line 6).

        ``axis == 0`` splits rows (top/bottom), ``axis == 1`` splits columns
        (left/right).  The first half gets the smaller coordinates.
        """
        if axis == 0:
            mid = self.y0 + self.height // 2
            return (
                Rect(self.y0, self.x0, mid, self.x1).normalized(),
                Rect(mid, self.x0, self.y1, self.x1).normalized(),
            )
        if axis == 1:
            mid = self.x0 + self.width // 2
            return (
                Rect(self.y0, self.x0, self.y1, mid).normalized(),
                Rect(self.y0, mid, self.y1, self.x1).normalized(),
            )
        raise ValueError(f"axis must be 0 or 1, got {axis}")


@dataclass(frozen=True, slots=True)
class Extent3:
    """Half-open axis-aligned box of voxel indices ``[lo, hi)`` per axis."""

    x0: int
    y0: int
    z0: int
    x1: int
    y1: int
    z1: int

    @staticmethod
    def full(shape: tuple[int, int, int]) -> "Extent3":
        nx, ny, nz = shape
        return Extent3(0, 0, 0, nx, ny, nz)

    @property
    def shape(self) -> tuple[int, int, int]:
        return (max(0, self.x1 - self.x0), max(0, self.y1 - self.y0), max(0, self.z1 - self.z0))

    @property
    def num_voxels(self) -> int:
        sx, sy, sz = self.shape
        return sx * sy * sz

    @property
    def is_empty(self) -> bool:
        return self.num_voxels == 0

    @property
    def center(self) -> np.ndarray:
        return np.array(
            [(self.x0 + self.x1) / 2.0, (self.y0 + self.y1) / 2.0, (self.z0 + self.z1) / 2.0]
        )

    def lo(self) -> np.ndarray:
        return np.array([self.x0, self.y0, self.z0], dtype=np.float64)

    def hi(self) -> np.ndarray:
        return np.array([self.x1, self.y1, self.z1], dtype=np.float64)

    def corners(self) -> np.ndarray:
        """Return the eight corner points, shape ``(8, 3)``."""
        lo, hi = self.lo(), self.hi()
        out = np.empty((8, 3))
        for i in range(8):
            for ax in range(3):
                out[i, ax] = hi[ax] if (i >> ax) & 1 else lo[ax]
        return out

    def split(self, axis: int) -> tuple["Extent3", "Extent3"]:
        """Bisect along ``axis`` (0=x, 1=y, 2=z); first half is the low side."""
        lo = [self.x0, self.y0, self.z0]
        hi = [self.x1, self.y1, self.z1]
        if hi[axis] - lo[axis] < 2:
            raise ValueError(f"extent too thin to split along axis {axis}: {self}")
        mid = lo[axis] + (hi[axis] - lo[axis]) // 2
        a_hi = list(hi)
        a_hi[axis] = mid
        b_lo = list(lo)
        b_lo[axis] = mid
        a = Extent3(lo[0], lo[1], lo[2], a_hi[0], a_hi[1], a_hi[2])
        b = Extent3(b_lo[0], b_lo[1], b_lo[2], hi[0], hi[1], hi[2])
        return a, b

    def slices(self) -> tuple[slice, slice, slice]:
        return slice(self.x0, self.x1), slice(self.y0, self.y1), slice(self.z0, self.z1)
