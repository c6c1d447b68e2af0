"""Vectorized orthographic ray caster (the sort-last rendering phase).

Each rank renders only its subvolume :class:`~repro.types.Extent3` into a
full-frame :class:`~repro.render.image.SubImage`.  Rays sample the scalar
field on a *global* ``t`` grid shared by every subvolume (see
:class:`~repro.render.camera.Camera`), restricted per pixel to the
ray/block intersection interval.  Because over is associative and sample
positions are identical, compositing the block renders front-to-back
reproduces the full-volume render bit-for-bit up to float rounding —
the invariant the whole test suite leans on.

Sampling uses trilinear interpolation of the *global* field
(``scipy.ndimage.map_coordinates``): samples stay inside the block's
slab, while interpolation near block faces may read neighbour voxels —
the ghost-cell data a real distributed renderer exchanges during the
partitioning phase.

Setup, then march
-----------------
Everything about casting one extent through one camera lives in
:class:`RaySetup`: the screen footprint, the slab hit mask, the
compacted ray origins, each ray's ``[kmin, kmax]`` step interval and its
occupancy-tightened span.  All of it is per-ray elementwise, so a setup
clipped to a window (``clip_rect``) holds exactly the whole-footprint
setup's rays inside it.  :meth:`RaySetup.march` marches every ray into
planes cropped to the rays' bounding rect — what the pipeline's render
task ships — and :func:`render_subvolume` scatters those into a
full-frame subimage.

Marching strategy
-----------------
Rays are independent; the steps of one ray are not.  The production
marcher (:func:`_march_batched`) therefore batches over *rays*: a
contiguous run of rays whose spans total at most ``_BATCH_SAMPLES``
steps is expanded into one flat ``(ray, k)`` sample list, so working
memory does not depend on the image size and a ray's result and work do
not depend on which rays march with it.

* **Two occupancy levels** of one dilated block-maximum pyramid
  (:meth:`~repro.volume.grid.VolumeGrid.occupancy_max`), each bounding
  every voxel a trilinear stencil in the block can read.  The *coarse*
  level (8³) is asked once per setup, every ``stride`` steps: it
  decides which rays exist and their ``[kmin, kmax]`` span — hence
  ``rect``, blank tiles and the modelled clocks.  The *fine* level (2³)
  is asked for every sample of a batch and prunes inside the span.  A
  bound at or below the transfer function's zero-opacity threshold
  forces ``alpha`` to exactly ``0``, so dropping the sample (or the ray)
  is bit-identical.
* **One interpolation, one classification** per batch, over the samples
  the fine level lets through.
* **Front-to-back by rounds** — round ``j`` composites the ``j``-th live
  sample of every ray that has one; rays are ordered by live count, so
  each round is a prefix slice.

Per ray that is the same samples, in the same order, through the same
float expressions as a plain per-step loop over every ray, so the two
produce bit-identical images; ``tests/test_raycast_equivalence.py``
locks that in against the per-step reference in ``tests/oracles.py``.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage

from .. import perf
from ..errors import RenderError
from ..types import Extent3, Rect
from ..volume.grid import VolumeGrid
from ..volume.transfer import TransferFunction
from .camera import Camera
from .image import SubImage

__all__ = ["RaySetup", "render_subvolume", "render_full"]

_EPS = 1e-12

#: Most steps one batch expands at once — the marcher's and the span
#: pre-pass's.  Bounds their transient arrays (~16 MB) whatever the image
#: size; a single ray longer than this marches alone.
_BATCH_SAMPLES = 1 << 17

#: Block edges of the two occupancy levels (see "Marching strategy").
_OCC_COARSE = 8
_OCC_FINE = 2
#: Safety margin subtracted from the transfer zero threshold before
#: comparing against block bounds: float32 interpolation may exceed the
#: exact convex-combination bound by rounding ulps, so only blocks whose
#: bound is *comfortably* below the threshold are skipped.
_OCC_MARGIN = 1e-5


class RaySetup:
    """Per-(volume, transfer, camera, extent) ray state, computed once.

    Holds the rays that can contribute to the image — those that hit the
    extent's slab, cover at least one global sample step and (when the
    transfer function has a zero-opacity threshold) touch an occupied
    block — compacted in row-major pixel order, each with its origin and
    its step interval already tightened to the occupied span.  ``rect``
    is their bounding rectangle: a pixel outside it is provably blank.

    ``clip_rect`` restricts the setup to an image-space window (the
    rays outside it are never derived).
    """

    __slots__ = (
        "volume", "transfer", "camera", "rect", "rows", "cols",
        "origins", "kmin", "kmax", "occupancy", "occ_threshold",
    )

    def __init__(
        self,
        volume: VolumeGrid,
        transfer: TransferFunction,
        camera: Camera,
        extent: Extent3 | None = None,
        *,
        clip_rect: Rect | None = None,
    ):
        if tuple(camera.volume_shape) != volume.shape:
            raise RenderError(
                f"camera built for volume shape {camera.volume_shape}, got {volume.shape}"
            )
        self.volume = volume
        self.transfer = transfer
        self.camera = camera
        self.occupancy = None
        self.occ_threshold = 0.0
        perf.incr("raycast.setups")
        if extent is None:
            extent = volume.full_extent()
        self._derive_rays(extent, clip_rect)
        if self.rows.size:
            self.rect = Rect(
                int(self.rows[0]), int(self.cols.min()),
                int(self.rows[-1]) + 1, int(self.cols.max()) + 1,
            )
        else:
            self.rect = Rect.empty()

    def _derive_rays(self, extent: Extent3, clip_rect: Rect | None) -> None:
        camera = self.camera
        self.rows = self.cols = np.empty(0, dtype=np.intp)
        self.origins = np.empty((0, 3), dtype=np.float64)
        self.kmin = self.kmax = np.empty(0, dtype=np.int64)
        if extent.is_empty:
            return
        footprint = camera.footprint_rect(extent.corners())
        if clip_rect is not None:
            footprint = footprint.intersect(clip_rect)
        if footprint.is_empty:
            return

        origins = camera.pixel_origins(footprint).reshape(-1, 3)
        view_dir = camera.view_dir
        tmin, tmax, valid = _slab_interval(origins, view_dir, extent)
        hit = valid & (tmax - tmin > _EPS)

        # Global sample grid indices covered by each pixel's interval:
        # t_k = -t_half + (k + 0.5) * step  with  t_k in [tmin, tmax).
        step = camera.step
        t_half = camera.t_half
        tmin = tmin[hit]
        tmax = tmax[hit]
        kmin = np.ceil((tmin + t_half) / step - 0.5).astype(np.int64)
        kmax = np.ceil((tmax + t_half) / step - 0.5).astype(np.int64) - 1
        np.clip(kmin, 0, camera.num_steps - 1, out=kmin)
        np.clip(kmax, -1, camera.num_steps - 1, out=kmax)

        sampled = kmax >= kmin
        pixels = np.flatnonzero(hit)[sampled]  # row-major inside footprint
        origins = origins[pixels]
        kmin = kmin[sampled]
        kmax = kmax[sampled]
        perf.incr("raycast.rays", int(pixels.size))

        # Empty-space skipping needs a provable zero-opacity threshold;
        # transfer functions without one (duck-typed stand-ins) simply
        # march unskipped.
        zero_lo = getattr(self.transfer, "zero_alpha_below", None)
        if pixels.size and zero_lo is not None and zero_lo > _OCC_MARGIN:
            self.occ_threshold = float(zero_lo) - _OCC_MARGIN
            # Tighten each ray's interval to its occupied span and drop
            # rays that never touch an occupied block.  Their pixels
            # stay exactly 0.0 — the same value the reference computes
            # by adding +0.0 at every step.
            alive, kmin, kmax = _occupied_span(
                self.volume.occupancy_max(_OCC_COARSE), self.occ_threshold,
                origins, view_dir, step, t_half, kmin, kmax, self.volume.shape,
            )
            self.occupancy = self.volume.occupancy_max(_OCC_FINE)
            perf.incr("raycast.empty_rays", int(pixels.size - alive.sum()))
            pixels = pixels[alive]
            origins = origins[alive]
            kmin = kmin[alive]
            kmax = kmax[alive]

        self.rows = footprint.y0 + pixels // footprint.width
        self.cols = footprint.x0 + pixels % footprint.width
        self.origins = origins
        self.kmin = kmin
        self.kmax = kmax

    def march(self) -> tuple[np.ndarray, np.ndarray]:
        """March every ray; returns the intensity and opacity planes
        cropped to ``rect`` (a pixel no ray reaches stays blank)."""
        intensity = np.zeros((self.rect.height, self.rect.width))
        opacity = np.zeros_like(intensity)
        if not self.rows.size:
            return intensity, opacity
        acc_i = np.zeros(self.kmin.size, dtype=np.float64)
        acc_a = np.zeros(self.kmin.size, dtype=np.float64)
        camera = self.camera
        rays = (
            self.volume.data, self.transfer, self.origins, camera.view_dir,
            camera.step, camera.t_half, self.kmin, self.kmax, acc_i, acc_a,
        )
        perf.incr("raycast.march_calls")
        with perf.timer("raycast.march"):
            _march_batched(*rays, self.occupancy, self.occ_threshold)
        pixels = (self.rows - self.rect.y0, self.cols - self.rect.x0)
        intensity[pixels] = acc_i
        opacity[pixels] = acc_a
        return intensity, opacity


def render_subvolume(
    volume: VolumeGrid,
    transfer: TransferFunction,
    camera: Camera,
    extent: Extent3 | None = None,
    *,
    clip_rect: Rect | None = None,
) -> SubImage:
    """Ray-cast ``extent`` of ``volume`` into a full-frame subimage.

    ``extent`` defaults to the whole volume.  The returned image is blank
    outside the extent's screen footprint.

    ``clip_rect`` restricts rendering to an image-space window: only
    rays whose pixels fall inside it march, everything else stays
    blank.  Because every pixel's ray is independent and samples the
    same global ``t`` grid, the pixels inside the window are
    bit-identical to the corresponding pixels of an unclipped render.
    """
    setup = RaySetup(volume, transfer, camera, extent, clip_rect=clip_rect)
    image = SubImage.blank(camera.height, camera.width)
    rows, cols = setup.rect.slices()
    image.intensity[rows, cols], image.opacity[rows, cols] = setup.march()
    return image


def render_full(
    volume: VolumeGrid,
    transfer: TransferFunction,
    camera: Camera,
) -> SubImage:
    """Render the entire volume (the sequential reference image)."""
    return render_subvolume(volume, transfer, camera, volume.full_extent())


# --------------------------------------------------------------------------
# internals
# --------------------------------------------------------------------------
def _slab_interval(
    origins: np.ndarray, view_dir: np.ndarray, extent: Extent3
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-pixel ray/box intersection ``[tmin, tmax]`` (slab method)."""
    n = origins.shape[0]
    tmin = np.full(n, -np.inf)
    tmax = np.full(n, np.inf)
    valid = np.ones(n, dtype=bool)
    lo = extent.lo()
    hi = extent.hi()
    for axis in range(3):
        o = origins[:, axis]
        d = float(view_dir[axis])
        if abs(d) > _EPS:
            t1 = (lo[axis] - o) / d
            t2 = (hi[axis] - o) / d
            near = np.minimum(t1, t2)
            far = np.maximum(t1, t2)
            np.maximum(tmin, near, out=tmin)
            np.minimum(tmax, far, out=tmax)
        else:
            valid &= (o >= lo[axis]) & (o < hi[axis])
    return tmin, tmax, valid


def _ray_batches(counts: np.ndarray):
    """``(lo, hi)`` runs of consecutive rays whose ``counts`` total at most
    ``_BATCH_SAMPLES``; a ray longer than that is a run of its own."""
    ends = np.cumsum(counts)
    lo = done = 0
    while lo < counts.size:
        hi = max(lo + 1, int(np.searchsorted(ends, done + _BATCH_SAMPLES, side="right")))
        yield lo, hi
        lo, done = hi, int(ends[hi - 1])


def _expand(
    origins: np.ndarray,
    view_dir: np.ndarray,
    step: float,
    t_half: float,
    first: np.ndarray,
    counts: np.ndarray,
    stride: int = 1,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat ray-major sample list of a ray batch.

    Ray ``r`` contributes steps ``first[r] + stride * (0 .. counts[r]-1)``
    (``counts >= 1``).  Returns ``(starts, k, coords)``: each ray's offset
    into the list, and per sample its step and its voxel-center grid
    coordinates ``(3, n)``.  Coordinates use the reference's scalar
    expression — ``t_k = -t_half + (k + 0.5) * step``, then
    ``origin + t_k * view_dir`` per component, then ``- 0.5`` — so they
    are the reference's bit for bit.
    """
    starts = np.cumsum(counts) - counts
    k = np.repeat(first - stride * starts, counts) + stride * np.arange(int(counts.sum()))
    ts = -t_half + (k.astype(np.float64) + 0.5) * step
    coords = np.empty((3, k.size), dtype=np.float64)
    for axis in range(3):
        coords[axis] = (np.repeat(origins[:, axis], counts) + ts * view_dir[axis]) - 0.5
    return starts, k, coords


def _occupied(
    occupancy: np.ndarray,
    block: int,
    threshold: float,
    coords: np.ndarray,
    data_shape: tuple[int, ...],
) -> np.ndarray:
    """Which samples can have a non-zero ``alpha``.

    A trilinear stencil reads voxels ``floor(c)`` and ``floor(c)+1`` per
    axis (after boundary clamping): ``floor(clip(c))`` lands inside the
    sample's occupancy block and the ``+1`` neighbour is covered by the
    level's one-block dilation.  A block bound at or below the
    zero-opacity threshold (minus the rounding margin) forces
    ``alpha == 0``.  Integer floor-then-divide is exact, unlike float
    division by the block size.
    """
    flat = 0  # row-major block index: a flat take is ~3x cheaper than a 3-index gather
    for axis, blocks in enumerate(occupancy.shape):
        cell = np.clip(coords[axis], 0.0, data_shape[axis] - 1.0).astype(np.intp) // block
        flat = flat * blocks + cell
    return occupancy.ravel().take(flat) > threshold


def _march_batched(
    data: np.ndarray,
    transfer: TransferFunction,
    origins: np.ndarray,
    view_dir: np.ndarray,
    step: float,
    t_half: float,
    kmin: np.ndarray,
    kmax: np.ndarray,
    acc_i: np.ndarray,
    acc_a: np.ndarray,
    occupancy: np.ndarray | None,
    occ_threshold: float,
) -> None:
    """Ray-batched front-to-back accumulation over the global sample grid.

    Every ray passed in has ``kmax >= kmin`` (already tightened to its
    occupied span when ``occupancy``, the fine level, is given).

    Bit-identical to a per-step loop over all rays: each ray sees the
    same samples in the same order with the same float expressions;
    batching only regroups *independent* per-ray work.  Samples pruned by the
    occupancy bound would have had ``alpha`` exactly ``0``, and
    ``x + 0.0 == x`` exactly for the non-negative accumulators, so
    leaving them out is equally exact.
    """
    unit_correction = step != 1.0
    counts = kmax - kmin + 1
    for lo, hi in _ray_batches(counts):
        starts, _, coords = _expand(
            origins[lo:hi], view_dir, step, t_half, kmin[lo:hi], counts[lo:hi]
        )
        total = coords.shape[1]
        if occupancy is None:
            live_counts = counts[lo:hi]
        else:
            live = _occupied(occupancy, _OCC_FINE, occ_threshold, coords, data.shape)
            live_counts = np.add.reduceat(live, starts, dtype=np.intp)
            coords = coords.compress(live, axis=1)
        n_live = coords.shape[1]
        perf.incr("raycast.batches")
        perf.incr("raycast.samples", n_live)
        perf.incr("raycast.samples_skipped", total - n_live)
        if n_live == 0:
            continue  # every contribution is exactly +0.0

        samples = ndimage.map_coordinates(
            data, coords, order=1, mode="nearest", prefilter=False
        ).astype(np.float64)
        emission, alpha = transfer.classify(samples)
        if unit_correction:
            alpha = 1.0 - np.power(1.0 - alpha, step)

        # Round j composites the j-th live sample of every ray that has
        # one.  With the rays ordered by live count those are the first
        # `remaining[j]` of them, so each round works on prefix slices.
        # Expressions mirror the reference exactly (left-assoc
        # trans * emission * alpha).
        order = np.argsort(-live_counts, kind="stable")
        at = (np.cumsum(live_counts) - live_counts)[order]
        remaining = order.size - np.cumsum(np.bincount(live_counts))
        ai = np.zeros(order.size, dtype=np.float64)
        aa = np.zeros(order.size, dtype=np.float64)
        for r in remaining[:-1].tolist():
            cursor = at[:r]
            alpha_r = alpha[cursor]
            trans = 1.0 - aa[:r]
            ai[:r] += trans * emission[cursor] * alpha_r
            aa[:r] += trans * alpha_r
            cursor += 1  # in place: each ray's next live sample
        acc_i[lo + order] = ai
        acc_a[lo + order] = aa


def _occupied_span(
    occupancy: np.ndarray,
    occ_threshold: float,
    origins: np.ndarray,
    view_dir: np.ndarray,
    step: float,
    t_half: float,
    kmin: np.ndarray,
    kmax: np.ndarray,
    data_shape: tuple[int, ...],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tighten each ray's step interval to its occupied span.

    Tests the coarse occupancy bound every ``stride`` steps.  A dead
    test at step ``k'`` proves every step within ``stride - 1`` of it
    dead: the sample position moves at most ``(stride - 1) * step <= 7``
    voxels per axis, its trilinear stencil adds one more, and the
    level's one-block (8-voxel) dilation absorbs both.  Returns
    ``(alive, kn2, kx2)``: rays with no live test are provably all-zero;
    the rest get ``[first_live - (stride-1), last_live + (stride-1)]``
    clamped to the original interval.  Cost is one cheap integer gather
    per ``stride`` steps per ray — no interpolation.
    """
    stride = max(1, 1 + int((_OCC_COARSE - 1.0) // step))
    tests = (kmax - kmin) // stride + 1
    first_k = np.empty_like(kmin)
    last_k = np.empty_like(kmin)
    for lo, hi in _ray_batches(tests):
        starts, k, coords = _expand(
            origins[lo:hi], view_dir, step, t_half, kmin[lo:hi], tests[lo:hi], stride
        )
        live = _occupied(occupancy, _OCC_COARSE, occ_threshold, coords, data_shape)
        first_k[lo:hi] = np.minimum.reduceat(np.where(live, k, np.iinfo(k.dtype).max), starts)
        last_k[lo:hi] = np.maximum.reduceat(np.where(live, k, -1), starts)
    alive = last_k >= 0
    kn2 = np.maximum(kmin, first_k - (stride - 1))
    kx2 = np.minimum(kmax, last_k + (stride - 1))
    return alive, kn2, kx2
