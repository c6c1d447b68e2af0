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

Setup once, march any selection
-------------------------------
Everything about casting one extent through one camera that does not
depend on *which* pixels are wanted lives in :class:`RaySetup`: the
screen footprint, the slab hit mask, the compacted ray origins, each
ray's ``[kmin, kmax]`` step interval and its occupancy-tightened span.
All of it is per-ray elementwise, so a slice of a whole-footprint setup
is bit-identical to a setup computed for the slice alone.
:meth:`RaySetup.march_into` then marches any rect selection of those
rays straight into caller-supplied planes.  :func:`render_subvolume` is
"build the setup for the (clipped) footprint, march all of it"; the
fused tile pipeline builds one setup per rank and marches one tile-row
band at a time.

Marching strategy
-----------------
The production marcher (:func:`_march_chunked`) batches ``chunk_steps``
global sample steps into a single ``map_coordinates`` call over a
*compacted* active-ray set:

* **Chunked sampling** — one interpolation call per chunk instead of one
  per step amortizes the per-call overhead and the per-step Python work.
* **Active-ray compaction** — rays are physically removed from the
  working arrays once they exit their slab interval, so late steps touch
  only the rays that still need them (no full-frame boolean masks).
* **Early-ray termination** — a ray whose accumulated opacity reaches
  the termination threshold is retired.  The default (exact) setting
  retires a ray only when its transmittance is *exactly* zero, which is
  bit-identical to marching on (every further contribution is ``+0.0``).
  An aggressive threshold < 1 trades a bounded opacity error for speed
  (see DESIGN.md "Performance notes").
* **Empty-space skipping** — a dilated block-maximum occupancy grid
  (:meth:`~repro.volume.grid.VolumeGrid.occupancy_max`) bounds every
  voxel a trilinear stencil can read.  Samples whose bound sits at or
  below the transfer function's zero-opacity threshold have ``alpha``
  exactly ``0``, so their interpolation is skipped outright — also
  bit-identical.

Per ray, the chunked marcher performs the identical sequence of float
operations as the per-step reference (:func:`_march_reference`), so the
two produce bit-identical images; ``tests/test_raycast_equivalence.py``
locks that in.
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

__all__ = ["RaySetup", "render_subvolume", "render_full", "DEFAULT_CHUNK_STEPS"]

_EPS = 1e-12

#: Global sample steps batched per ``map_coordinates`` call.
DEFAULT_CHUNK_STEPS = 8

#: Edge length of the occupancy-grid blocks used for empty-space skipping.
_OCC_BLOCK = 8
#: Safety margin subtracted from the transfer zero threshold before
#: comparing against block bounds: float32 interpolation may exceed the
#: exact convex-combination bound by rounding ulps, so only blocks whose
#: bound is *comfortably* below the threshold are skipped.
_OCC_MARGIN = 1e-5


class RaySetup:
    """Per-(volume, transfer, camera, extent) ray state, computed once.

    Holds the rays that can contribute to the image — those that hit the
    extent's slab, cover at least one global sample step and (for the
    chunked marcher) touch an occupied block — compacted in row-major
    pixel order, each with its origin and its step interval already
    tightened to the occupied span.  ``rect`` is their bounding
    rectangle: a pixel outside it is provably blank.

    ``clip_rect`` restricts the setup to an image-space window (the
    rays outside it are never derived).  ``march`` picks the marcher the
    intervals are prepared for: ``"chunked"`` (production) or
    ``"reference"`` (plain intervals for the per-step oracle).
    """

    __slots__ = (
        "volume", "transfer", "camera", "march", "rect", "rows", "cols",
        "origins", "kmin", "kmax", "chunk_origin", "occupancy", "occ_threshold",
    )

    def __init__(
        self,
        volume: VolumeGrid,
        transfer: TransferFunction,
        camera: Camera,
        extent: Extent3 | None = None,
        *,
        clip_rect: Rect | None = None,
        march: str = "chunked",
    ):
        if tuple(camera.volume_shape) != volume.shape:
            raise RenderError(
                f"camera built for volume shape {camera.volume_shape}, got {volume.shape}"
            )
        if march not in ("chunked", "reference"):
            raise RenderError(f"unknown marcher {march!r}; use 'chunked' or 'reference'")
        self.volume = volume
        self.transfer = transfer
        self.camera = camera
        self.march = march
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
            #: First sampled step of any ray: the anchor of the chunk grid.
            self.chunk_origin = int(self.kmin.min())
        else:
            self.rect = Rect.empty()
            self.chunk_origin = 0

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
        # march unskipped, and so does the reference marcher.
        zero_lo = getattr(self.transfer, "zero_alpha_below", None)
        if (
            self.march == "chunked"
            and pixels.size
            and zero_lo is not None
            and zero_lo > _OCC_MARGIN
        ):
            self.occupancy = self.volume.occupancy_max(_OCC_BLOCK)
            self.occ_threshold = float(zero_lo) - _OCC_MARGIN
            # Tighten each ray's interval to its occupied span and drop
            # rays that never touch an occupied block.  Their pixels
            # stay exactly 0.0 — the same value the reference computes
            # by adding +0.0 at every step.
            alive, kmin, kmax = _occupied_span(
                self.volume.shape, self.occupancy, _OCC_BLOCK, self.occ_threshold,
                origins, view_dir, step, t_half, kmin, kmax,
            )
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

    def march_into(
        self,
        intensity: np.ndarray,
        opacity: np.ndarray,
        rect: Rect | None = None,
        *,
        early_termination: float | None = None,
        chunk_steps: int = DEFAULT_CHUNK_STEPS,
    ) -> None:
        """March the rays inside ``rect`` (default: all) into full-frame
        ``intensity``/``opacity`` planes.

        Only pixels a ray can reach are written, so the planes must be
        blank inside ``rect`` beforehand.  Chunk boundaries are anchored
        at the setup's first sampled step, never at the selection's, so
        every ray sees the same chunking — and, under lossy
        ``early_termination``, retires at the same step — whichever
        selection it is marched in.
        """
        if chunk_steps < 1:
            raise RenderError(f"chunk_steps must be >= 1, got {chunk_steps}")
        if early_termination is not None and not (0.0 < early_termination <= 1.0):
            raise RenderError(
                f"early_termination must be in (0, 1], got {early_termination}"
            )
        sel = self._select(self.rect if rect is None else rect.intersect(self.rect))
        if sel is None:
            return
        origins = self.origins[sel]
        kmin = self.kmin[sel]
        kmax = self.kmax[sel]
        acc_i = np.zeros(kmin.size, dtype=np.float64)
        acc_a = np.zeros(kmin.size, dtype=np.float64)
        camera = self.camera
        perf.incr("raycast.march_calls")
        with perf.timer("raycast.march"):
            if self.march == "reference":
                _march_reference(
                    self.volume.data, self.transfer, origins, camera.view_dir,
                    camera.step, camera.t_half, kmin, kmax, acc_i, acc_a,
                )
            else:
                _march_chunked(
                    self.volume.data, self.transfer, origins, camera.view_dir,
                    camera.step, camera.t_half, kmin, kmax, acc_i, acc_a,
                    chunk_steps=chunk_steps,
                    chunk_origin=self.chunk_origin,
                    opacity_limit=(
                        1.0 if early_termination is None else float(early_termination)
                    ),
                    occupancy=self.occupancy,
                    occ_block=_OCC_BLOCK,
                    occ_threshold=self.occ_threshold,
                )
        pixels = (self.rows[sel], self.cols[sel])
        intensity[pixels] = acc_i
        opacity[pixels] = acc_a

    def _select(self, rect: Rect) -> slice | np.ndarray | None:
        """Positions of the rays inside ``rect`` (a subset of ``self.rect``):
        a slice for full-width row bands, an index array otherwise,
        ``None`` when there are none."""
        if rect.is_empty:
            return None
        lo, hi = np.searchsorted(self.rows, (rect.y0, rect.y1))
        if lo == hi:
            return None
        if rect.x0 <= self.rect.x0 and rect.x1 >= self.rect.x1:
            return slice(int(lo), int(hi))
        cols = self.cols[lo:hi]
        inside = np.flatnonzero((cols >= rect.x0) & (cols < rect.x1))
        return inside + lo if inside.size else None


def render_subvolume(
    volume: VolumeGrid,
    transfer: TransferFunction,
    camera: Camera,
    extent: Extent3 | None = None,
    *,
    early_termination: float | None = None,
    chunk_steps: int = DEFAULT_CHUNK_STEPS,
    march: str = "chunked",
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

    ``early_termination`` is the accumulated-opacity threshold at which a
    ray stops marching.  ``None`` (the default) means *exact*: rays stop
    only at zero transmittance, which cannot change the result.  Values
    in ``(0, 1)`` opt into lossy early termination (opacity error bounded
    by ``1 - early_termination`` per pixel).  ``chunk_steps`` controls
    how many global sample steps are interpolated per batch; it never
    affects the result.  ``march`` selects the marcher: ``"chunked"``
    (production) or ``"reference"`` (the plain per-step loop kept as the
    equivalence/benchmark oracle; ignores the other two knobs).
    """
    setup = RaySetup(volume, transfer, camera, extent, clip_rect=clip_rect, march=march)
    image = SubImage.blank(camera.height, camera.width)
    setup.march_into(
        image.intensity, image.opacity,
        early_termination=early_termination, chunk_steps=chunk_steps,
    )
    return image


def render_full(
    volume: VolumeGrid,
    transfer: TransferFunction,
    camera: Camera,
    **march_options,
) -> SubImage:
    """Render the entire volume (the sequential reference image)."""
    return render_subvolume(volume, transfer, camera, volume.full_extent(), **march_options)


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


def _march_chunked(
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
    *,
    chunk_steps: int,
    chunk_origin: int,
    opacity_limit: float,
    occupancy: np.ndarray | None = None,
    occ_block: int = _OCC_BLOCK,
    occ_threshold: float = 0.0,
) -> None:
    """Chunked front-to-back accumulation over the global sample grid.

    Every ray passed in has ``kmax >= kmin`` (already tightened to its
    occupied span when ``occupancy`` is given).  Chunks are the
    ``chunk_steps``-wide cells of a grid starting at ``chunk_origin``,
    so a ray's chunking does not depend on which other rays march with
    it.

    Bit-identical to :func:`_march_reference`: each ray sees the same
    samples in the same order with the same float expressions; batching
    only regroups *independent* per-ray work.  Rays whose interval does
    not cover a sampled step get ``alpha = 0`` there, and ``x + 0.0 == x``
    exactly for the non-negative accumulators.  Samples pruned by the
    ``occupancy`` bound would have had ``alpha`` exactly ``0``, so
    pruning them is equally exact.
    """
    unit_correction = step != 1.0
    exact = opacity_limit >= 1.0

    # Compacted working set: positions `idx` into the caller's arrays
    # plus per-ray state.  Rays leave it as they retire.
    idx = np.arange(kmin.size)
    o_c = origins
    kn_c = kmin
    kx_c = kmax
    ai_c = np.zeros(idx.size, dtype=np.float64)
    aa_c = np.zeros(idx.size, dtype=np.float64)

    # First chunk of the grid anchored at `chunk_origin` that holds a
    # sampled step of these rays.
    k_lo = chunk_origin + (int(kn_c.min()) - chunk_origin) // chunk_steps * chunk_steps
    k_hi = int(kx_c.max())

    for c0 in range(k_lo, k_hi + 1, chunk_steps):
        c1 = min(c0 + chunk_steps, k_hi + 1)

        # Retire rays that exited their slab or saturated.  Exact mode
        # retires only at transmittance == 0 (further adds are +0.0);
        # aggressive mode retires at the configured opacity threshold.
        saturated = (aa_c == 1.0) if exact else (aa_c >= opacity_limit)
        done = (kx_c < c0) | saturated
        if done.any():
            retired = np.flatnonzero(done)
            perf.incr("raycast.terminated_rays", int(saturated[retired].sum()))
            gone = idx[retired]
            acc_i[gone] = ai_c[retired]
            acc_a[gone] = aa_c[retired]
            keep = ~done
            idx = idx[keep]
            o_c = o_c[keep]
            kn_c = kn_c[keep]
            kx_c = kx_c[keep]
            ai_c = ai_c[keep]
            aa_c = aa_c[keep]
            if idx.size == 0:
                return

        # Rays whose interval overlaps this chunk (others not started yet).
        started = kn_c < c1
        if not started.any():
            continue
        whole = bool(started.all())
        sel = slice(None) if whole else np.flatnonzero(started)
        o_s = o_c if whole else o_c[sel]
        kn_s = kn_c if whole else kn_c[sel]
        kx_s = kx_c if whole else kx_c[sel]

        ks = np.arange(c0, c1, dtype=np.int64)
        # Same scalar expression as the reference: t_k = -t_half + (k+0.5)*step,
        # then offset t_k * view_dir[axis] added to each origin component.
        # Axis-major (3, nk, m) layout keeps every row contiguous (for
        # the occupancy gather and map_coordinates) and step-major
        # (nk, m) slices contiguous for the accumulation loop below.
        ts = -t_half + (ks.astype(np.float64) + 0.5) * step
        nk = ks.size
        m = o_s.shape[0]
        coords = np.empty((3, nk, m), dtype=np.float64)
        for a in range(3):
            coords[a] = (o_s[:, a][None, :] + (ts * view_dir[a])[:, None]) - 0.5
        coords = coords.reshape(3, nk * m)  # voxel-center grid

        # Steps outside a ray's [kmin, kmax] interval contribute nothing
        # (the reference never samples them either).
        valid = (kn_s[None, :] <= ks[:, None]) & (ks[:, None] <= kx_s[None, :])
        live = valid.ravel()
        if occupancy is not None:
            # Empty-space skipping.  A trilinear stencil reads voxels
            # floor(c) and floor(c)+1 per axis (after boundary clamping);
            # floor(clip(c)) lands inside the sample's occupancy block
            # and the +1 neighbour is covered by the grid's one-block
            # dilation.  A block bound at or below the zero-opacity
            # threshold (minus the rounding margin) forces alpha == 0,
            # so the interpolation can be skipped without changing the
            # accumulators.  Integer floor-then-divide is exact, unlike
            # float division by the block size.
            bx = np.clip(coords[0], 0.0, data.shape[0] - 1.0).astype(np.intp) // occ_block
            by = np.clip(coords[1], 0.0, data.shape[1] - 1.0).astype(np.intp) // occ_block
            bz = np.clip(coords[2], 0.0, data.shape[2] - 1.0).astype(np.intp) // occ_block
            live = live & (occupancy[bx, by, bz] > occ_threshold)

        n_live = int(np.count_nonzero(live))
        perf.incr("raycast.chunks")
        perf.incr("raycast.samples", n_live)
        perf.incr("raycast.samples_skipped", nk * m - n_live)
        if n_live == 0:
            continue  # every contribution this chunk is exactly +0.0

        samples_live = ndimage.map_coordinates(
            data,
            coords if n_live == nk * m else coords[:, live],
            order=1,
            mode="nearest",
            prefilter=False,
        ).astype(np.float64)
        # Classify only the computed samples — ufuncs are elementwise,
        # so compacted classification matches the reference bit for bit.
        # Skipped positions keep alpha = emission = 0.0 exactly, which
        # is what the reference would have computed (or never touched).
        em_live, al_live = transfer.classify(samples_live)
        if unit_correction:
            al_live = 1.0 - np.power(1.0 - al_live, step)
        if n_live == nk * m:
            emission = em_live.reshape(nk, m)
            alpha = al_live.reshape(nk, m)
        else:
            emission = np.zeros(nk * m, dtype=np.float64)
            alpha = np.zeros(nk * m, dtype=np.float64)
            emission[live] = em_live
            alpha[live] = al_live
            emission = emission.reshape(nk, m)
            alpha = alpha.reshape(nk, m)

        # Front-to-back over, one global step at a time, on compacted
        # arrays.  Expressions mirror the reference exactly (left-assoc
        # trans * emission * alpha) to keep bit-identical accumulation.
        ai_s = ai_c if whole else ai_c[sel]
        aa_s = aa_c if whole else aa_c[sel]
        for j in range(nk):
            alpha_j = alpha[j]
            if not alpha_j.any():
                continue  # all contributions are exactly +0.0
            trans = 1.0 - aa_s
            ai_s += trans * emission[j] * alpha_j
            aa_s += trans * alpha_j
        if not whole:
            ai_c[sel] = ai_s
            aa_c[sel] = aa_s

    acc_i[idx] = ai_c
    acc_a[idx] = aa_c


def _occupied_span(
    data_shape: tuple[int, ...],
    occupancy: np.ndarray,
    occ_block: int,
    occ_threshold: float,
    o_c: np.ndarray,
    view_dir: np.ndarray,
    step: float,
    t_half: float,
    kn_c: np.ndarray,
    kx_c: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tighten each ray's step interval to its occupied span.

    Tests the occupancy bound every ``stride`` steps.  A dead test at
    step ``k'`` proves every step within ``stride - 1`` of it dead: the
    sample position moves at most ``(stride - 1) * step <= 7`` voxels
    per axis, its trilinear stencil adds one more, and the occupancy
    grid's one-block (8-voxel) dilation absorbs both.  Returns
    ``(alive, kn2, kx2)``: rays with no live test are provably all-zero;
    the rest get ``[first_live - (stride-1), last_live + (stride-1)]``
    clamped to the original interval.  Cost is one cheap integer gather
    per ``stride`` steps per ray — no interpolation.
    """
    stride = max(1, 1 + int(7.0 // step))
    m = o_c.shape[0]
    first_k = np.full(m, -1, dtype=np.int64)
    last_k = np.full(m, -1, dtype=np.int64)

    act = np.arange(m)  # positions into the full per-ray arrays
    kt = kn_c.copy()
    kx_a = kx_c
    o_a = o_c
    while act.size:
        tt = -t_half + (kt.astype(np.float64) + 0.5) * step
        bx = np.clip(o_a[:, 0] + tt * view_dir[0] - 0.5, 0.0, data_shape[0] - 1.0)
        by = np.clip(o_a[:, 1] + tt * view_dir[1] - 0.5, 0.0, data_shape[1] - 1.0)
        bz = np.clip(o_a[:, 2] + tt * view_dir[2] - 0.5, 0.0, data_shape[2] - 1.0)
        live = (
            occupancy[
                bx.astype(np.intp) // occ_block,
                by.astype(np.intp) // occ_block,
                bz.astype(np.intp) // occ_block,
            ]
            > occ_threshold
        )
        if live.any():
            hit = act[live]
            k_hit = kt[live]
            last_k[hit] = k_hit
            unset = first_k[hit] < 0
            if unset.any():
                first_k[hit[unset]] = k_hit[unset]
        kt = kt + stride
        keep = kt <= kx_a
        if not keep.all():
            act = act[keep]
            kt = kt[keep]
            kx_a = kx_a[keep]
            o_a = o_a[keep]

    alive = first_k >= 0
    kn2 = np.maximum(kn_c, first_k - (stride - 1))
    kx2 = np.minimum(kx_c, last_k + (stride - 1))
    return alive, kn2, kx2


def _march_reference(
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
) -> None:
    """Per-step reference marcher (the original implementation).

    Kept as the bit-level oracle for the chunked marcher and as the
    "before" side of ``benchmarks/bench_hotpaths.py``.
    """
    k_lo = int(kmin.min())
    k_hi = int(kmax.max())
    # Per-sample opacity correction for non-unit step lengths.
    unit_correction = step != 1.0
    for k in range(k_lo, k_hi + 1):
        active = (kmin <= k) & (k <= kmax)
        if not active.any():
            continue
        t_k = -t_half + (k + 0.5) * step
        points = origins[active] + t_k * view_dir
        coords = (points - 0.5).T  # field values live at voxel centers
        samples = ndimage.map_coordinates(
            data, coords, order=1, mode="nearest", prefilter=False
        ).astype(np.float64)
        emission, alpha = transfer.classify(samples)
        if unit_correction:
            alpha = 1.0 - np.power(1.0 - alpha, step)
        trans = 1.0 - acc_a[active]
        acc_i[active] += trans * emission * alpha
        acc_a[active] += trans * alpha
