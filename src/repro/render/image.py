"""The 2-D subimage produced by the rendering phase.

A :class:`SubImage` is a pair of full-frame ``float64`` planes —
``intensity`` (premultiplied emission) and ``opacity`` — exactly the two
values the paper ships per pixel (16 wire bytes).  A freshly rendered
subimage has non-blank pixels only inside the screen footprint of its
rank's subvolume; the compositing methods exploit that sparsity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import RenderError
from ..types import Rect

__all__ = ["SubImage"]


@dataclass
class SubImage:
    """Full-frame intensity/opacity planes for one rank.

    Planes always have identical ``(height, width)`` shape and float64
    dtype.  Instances are mutable on purpose: a compositor folds
    received pixels in place into working planes of its own (it never
    writes the rendered image it was given).
    """

    intensity: np.ndarray
    opacity: np.ndarray

    def __post_init__(self) -> None:
        self.intensity = np.ascontiguousarray(self.intensity, dtype=np.float64)
        self.opacity = np.ascontiguousarray(self.opacity, dtype=np.float64)
        if self.intensity.ndim != 2 or self.intensity.shape != self.opacity.shape:
            raise RenderError(
                f"plane shape mismatch: intensity {self.intensity.shape}, "
                f"opacity {self.opacity.shape}"
            )

    # ---- constructors ------------------------------------------------------
    @staticmethod
    def blank(height: int, width: int) -> "SubImage":
        """All-background image of the given size."""
        if height < 1 or width < 1:
            raise RenderError(f"image size must be positive, got {height}x{width}")
        return SubImage(
            intensity=np.zeros((height, width), dtype=np.float64),
            opacity=np.zeros((height, width), dtype=np.float64),
        )

    def copy(self) -> "SubImage":
        return SubImage(intensity=self.intensity.copy(), opacity=self.opacity.copy())

    # ---- geometry / sparsity --------------------------------------------------
    @property
    def height(self) -> int:
        return self.intensity.shape[0]

    @property
    def width(self) -> int:
        return self.intensity.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.intensity.shape  # type: ignore[return-value]

    @property
    def num_pixels(self) -> int:
        return self.intensity.size

    def full_rect(self) -> Rect:
        return Rect.full(self.height, self.width)

    def nonblank_mask(self) -> np.ndarray:
        from ..compositing.over import nonblank_mask  # local: avoids cycle

        return nonblank_mask(self.intensity, self.opacity)

    def nonblank_count(self) -> int:
        return int(self.nonblank_mask().sum())

    def sparsity(self) -> float:
        """Fraction of blank pixels (1.0 = entirely background)."""
        return 1.0 - self.nonblank_count() / self.num_pixels

    def bounding_rect(self, region: Rect | None = None) -> Rect:
        """Bounding rectangle of non-blank pixels (optionally clipped)."""
        from ..compositing.rect import find_bounding_rect  # local: avoids cycle

        return find_bounding_rect(self.intensity, self.opacity, region)

    # ---- comparison helpers ---------------------------------------------------
    def allclose(self, other: "SubImage", *, atol: float = 1e-9, rtol: float = 1e-7) -> bool:
        return (
            self.shape == other.shape
            and np.allclose(self.intensity, other.intensity, atol=atol, rtol=rtol)
            and np.allclose(self.opacity, other.opacity, atol=atol, rtol=rtol)
        )

    def max_abs_diff(self, other: "SubImage") -> float:
        if self.shape != other.shape:
            raise RenderError(f"shape mismatch: {self.shape} vs {other.shape}")
        return float(
            max(
                np.abs(self.intensity - other.intensity).max(initial=0.0),
                np.abs(self.opacity - other.opacity).max(initial=0.0),
            )
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SubImage({self.height}x{self.width}, "
            f"nonblank={self.nonblank_count()}/{self.num_pixels})"
        )
