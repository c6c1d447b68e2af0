"""Orthographic camera with Euler-angle viewpoint rotation.

The paper's §3.2 analysis studies how the number of *empty* receiving
bounding rectangles varies with the viewing point: a "normal orthogonal
projection" (axis-aligned view), rotation about one axis, or rotation
about two axes.  The camera therefore exposes exactly those knobs:
``rot_x``/``rot_y``/``rot_z`` in degrees applied to a default view down
the volume's z axis.

Conventions
-----------
* World space = voxel index space (unit spacing); the volume occupies
  ``[0, nx] x [0, ny] x [0, nz]``.
* ``view_dir`` points from the eye *into* the scene.
* Image rows grow downward: pixel ``(row v, col u)`` maps to the plane
  point ``center + (u - W/2 + 0.5)·s·right − (v - H/2 + 0.5)·s·up``.
* Rays are parameterized by arc length ``t`` around the volume center
  with a global sample grid ``t_k = -t_half + (k + 0.5)·step`` shared by
  every subvolume, so compositing block renders reproduces the
  full-volume render exactly (over is associative).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..errors import ConfigurationError
from ..types import Rect

__all__ = ["Camera", "rotation_matrix"]


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def rotation_matrix(rot_x: float, rot_y: float, rot_z: float) -> np.ndarray:
    """Row-major rotation ``Rz @ Ry @ Rx`` from degrees about each axis."""
    ax, ay, az = np.deg2rad([rot_x, rot_y, rot_z])
    cx, sx = np.cos(ax), np.sin(ax)
    cy, sy = np.cos(ay), np.sin(ay)
    cz, sz = np.cos(az), np.sin(az)
    rx = np.array([[1, 0, 0], [0, cx, -sx], [0, sx, cx]])
    ry = np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]])
    rz = np.array([[cz, -sz, 0], [sz, cz, 0], [0, 0, 1]])
    return rz @ ry @ rx


class _derived:
    """``functools.cached_property`` without its lock.

    Before Python 3.12 that lock is one ``RLock`` per attribute, shared
    by every instance: a render worker forked while another thread held
    it would wait on it forever.  A derived value is a pure function of
    the frozen fields, so two threads computing it at once is harmless.
    """

    def __init__(self, compute):
        self.compute = compute
        self.name = compute.__name__
        self.__doc__ = compute.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = self.compute(obj)
        obj.__dict__[self.name] = value
        return value


@dataclass(frozen=True)
class Camera:
    """Orthographic camera for a given volume shape and image size.

    ``scale`` is world units per pixel; when ``None`` it is chosen so the
    volume's bounding sphere fits the image with a small margin.
    ``step`` is the ray sampling distance in world units.
    """

    width: int
    height: int
    volume_shape: tuple[int, int, int]
    rot_x: float = 0.0
    rot_y: float = 0.0
    rot_z: float = 0.0
    scale: float | None = None
    step: float = 1.0

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ConfigurationError(f"image size must be positive, got {self.width}x{self.height}")
        if len(self.volume_shape) != 3 or any(s < 1 for s in self.volume_shape):
            raise ConfigurationError(f"invalid volume shape {self.volume_shape}")
        if self.step <= 0:
            raise ConfigurationError(f"step must be > 0, got {self.step}")
        if self.scale is not None and self.scale <= 0:
            raise ConfigurationError(f"scale must be > 0, got {self.scale}")

    # ---- derived geometry -------------------------------------------------
    # Derived values are pure functions of the frozen fields, so each is
    # computed once per instance (``_derived`` stores into the instance
    # ``__dict__``, which ``frozen=True`` does not guard) and
    # ``replace``/``rotated`` start from an empty cache.  Arrays are
    # handed out read-only because every caller shares them.
    @_derived
    def center(self) -> np.ndarray:
        return _frozen(np.asarray(self.volume_shape, dtype=np.float64) / 2.0)

    @_derived
    def diagonal(self) -> float:
        return float(np.linalg.norm(self.volume_shape))

    @_derived
    def pixel_scale(self) -> float:
        if self.scale is not None:
            return self.scale
        margin = 1.04
        return self.diagonal * margin / min(self.width, self.height)

    @_derived
    def _basis(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        rot = rotation_matrix(self.rot_x, self.rot_y, self.rot_z)
        right = rot @ np.array([1.0, 0.0, 0.0])
        up = rot @ np.array([0.0, 1.0, 0.0])
        view_dir = rot @ np.array([0.0, 0.0, -1.0])
        return _frozen(right), _frozen(up), _frozen(view_dir)

    def basis(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(right, up, view_dir)`` unit vectors in world space."""
        return self._basis

    @property
    def view_dir(self) -> np.ndarray:
        return self._basis[2]

    @_derived
    def t_half(self) -> float:
        """Half-length of the sampled ray segment around the center."""
        return self.diagonal / 2.0 + self.step

    @property
    def num_steps(self) -> int:
        """Number of global t samples along every ray."""
        return int(np.ceil(2.0 * self.t_half / self.step))

    def sample_ts(self) -> np.ndarray:
        """The global sample grid ``t_k`` shared by all subvolumes."""
        return -self.t_half + (np.arange(self.num_steps, dtype=np.float64) + 0.5) * self.step

    # ---- pixel <-> world mapping --------------------------------------------
    def pixel_origins(self, rect: Rect) -> np.ndarray:
        """World points at ``t = 0`` for each pixel of ``rect``.

        Returns shape ``(rect.height, rect.width, 3)``.
        """
        right, up, _ = self.basis()
        s = self.pixel_scale
        us = (np.arange(rect.x0, rect.x1, dtype=np.float64) - self.width / 2.0 + 0.5) * s
        vs = (np.arange(rect.y0, rect.y1, dtype=np.float64) - self.height / 2.0 + 0.5) * s
        origins = (
            self.center[None, None, :]
            + us[None, :, None] * right[None, None, :]
            - vs[:, None, None] * up[None, None, :]
        )
        return origins

    def project_points(self, points: np.ndarray) -> np.ndarray:
        """Project world points to continuous ``(row, col)`` pixel coords."""
        right, up, _ = self.basis()
        rel = np.asarray(points, dtype=np.float64) - self.center
        s = self.pixel_scale
        cols = rel @ right / s + self.width / 2.0 - 0.5
        rows = -(rel @ up) / s + self.height / 2.0 - 0.5
        return np.stack([rows, cols], axis=-1)

    def footprint_rect(self, corners: np.ndarray, *, pad: int = 1) -> Rect:
        """Clipped screen bounding rect of a set of world points."""
        rc = self.project_points(corners)
        y0 = int(np.floor(rc[:, 0].min())) - pad
        y1 = int(np.ceil(rc[:, 0].max())) + 1 + pad
        x0 = int(np.floor(rc[:, 1].min())) - pad
        x1 = int(np.ceil(rc[:, 1].max())) + 1 + pad
        return Rect(y0, x0, y1, x1).intersect(Rect.full(self.height, self.width))

    def rotated(self, *, rot_x: float | None = None, rot_y: float | None = None,
                rot_z: float | None = None) -> "Camera":
        """Copy with some rotation angles replaced."""
        return replace(
            self,
            rot_x=self.rot_x if rot_x is None else rot_x,
            rot_y=self.rot_y if rot_y is None else rot_y,
            rot_z=self.rot_z if rot_z is None else rot_z,
        )
