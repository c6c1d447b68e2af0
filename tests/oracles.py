"""Reference implementations the production code is checked against.

Each is the original, unoptimized form of something the library now does
one faster way; the tests (and the micro-benchmarks' "before" side)
compare production output against these bit for bit:

* :class:`LockstepSimulator` — the round-robin scheduler: step every
  ready rank in rank order, then resolve all possible matches, repeat.
  :func:`lockstep` makes ``run_compositing`` use it.
* :func:`render_reference` — the per-step ray marcher over every ray
  that hits the extent, with no empty-space skipping.
* :func:`_rle_encode_mask_loop` / :func:`_rle_decode_mask_loop` — the
  list-append RLE codecs.

Do not optimize anything here: being the plain version is the point.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
from scipy import ndimage

from repro.cluster.events import RecvOp, SendRecvOp, WaitOp
from repro.cluster.simulator import Simulator, _State
from repro.compositing.rle import MAX_RUN
from repro.errors import WireFormatError
from repro.render.image import SubImage
from repro.render.raycast import RaySetup

__all__ = ["LockstepSimulator", "lockstep", "render_reference"]


# --------------------------------------------------------------------------
# round-robin scheduler
# --------------------------------------------------------------------------
class LockstepSimulator(Simulator):
    """:class:`~repro.cluster.simulator.Simulator` under the original
    round-robin scheduler.

    Shares every matching and pricing routine with the heap scheduler;
    only the order in which ranks are stepped and matches discovered
    differs.  No heap is kept and nothing is woken: each round re-scans
    every blocked rank instead.  Schedule policies get no tie hooks.
    """

    def _drive(self) -> None:
        """Reference scheduler: step every rank, resolve matches, repeat."""
        while True:
            stepped = False
            for proc in self._procs:
                while proc.state is _State.READY:
                    stepped = True
                    self._count_step()
                    self._step(proc)
            if all(p.state is _State.DONE for p in self._procs):
                return
            matched = self._resolve_matches()
            if not matched and not stepped:
                self._raise_deadlock()

    def _resolve_matches(self) -> bool:
        matched = False
        for proc in self._procs:
            if proc.state is not _State.BLOCKED:
                continue
            op = proc.pending
            if isinstance(op, RecvOp):
                matched |= self._try_match_recv(proc, op)
            elif isinstance(op, SendRecvOp):
                matched |= self._try_match_exchange(proc, op)
            elif isinstance(op, WaitOp):
                matched |= self._try_complete_wait(proc, op)
            # SendOp is matched from the receiver's side; BarrierOp below.
        matched |= self._try_release_barrier()
        return matched

    def _schedule(self, proc) -> None:
        pass

    def _notify_waiters(self, *requests) -> None:
        pass


def lockstep():
    """Context manager: every ``run_compositing`` call inside the block
    runs on :class:`LockstepSimulator`."""
    from repro.pipeline import system

    return mock.patch.object(system, "Simulator", LockstepSimulator)


# --------------------------------------------------------------------------
# per-step ray marcher
# --------------------------------------------------------------------------
class _NoSkipTransfer:
    """Transfer stand-in without ``zero_alpha_below``: a setup over it
    keeps every ray that hits the extent, unskipped and untightened."""

    def __init__(self, transfer) -> None:
        self.classify = transfer.classify


def render_reference(volume, transfer, camera, extent=None, *, clip_rect=None) -> SubImage:
    """``render_subvolume`` through the per-step reference marcher."""
    setup = RaySetup(volume, _NoSkipTransfer(transfer), camera, extent, clip_rect=clip_rect)
    image = SubImage.blank(camera.height, camera.width)
    if setup.rows.size:
        acc_i = np.zeros(setup.kmin.size, dtype=np.float64)
        acc_a = np.zeros(setup.kmin.size, dtype=np.float64)
        _march_reference(
            volume.data, transfer, setup.origins, camera.view_dir, camera.step,
            camera.t_half, setup.kmin, setup.kmax, acc_i, acc_a,
        )
        image.intensity[setup.rows, setup.cols] = acc_i
        image.opacity[setup.rows, setup.cols] = acc_a
    return image


def _march_reference(
    data: np.ndarray,
    transfer,
    origins: np.ndarray,
    view_dir: np.ndarray,
    step: float,
    t_half: float,
    kmin: np.ndarray,
    kmax: np.ndarray,
    acc_i: np.ndarray,
    acc_a: np.ndarray,
) -> None:
    """Per-step reference marcher (the original implementation)."""
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


# --------------------------------------------------------------------------
# loop RLE codecs
# --------------------------------------------------------------------------
def _rle_encode_mask_loop(mask: np.ndarray) -> np.ndarray:
    """Original list-append encoder; byte-identity oracle, do not optimize."""
    mask = np.asarray(mask)
    if mask.ndim != 1:
        raise WireFormatError(f"mask must be 1-D, got shape {mask.shape}")
    n = mask.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.uint16)
    mask = mask.astype(bool, copy=False)
    change = np.flatnonzero(mask[1:] != mask[:-1]) + 1
    starts = np.concatenate(([0], change))
    ends = np.concatenate((change, [n]))
    lengths = ends - starts
    first_is_blank = not bool(mask[0])

    codes: list[int] = []
    if not first_is_blank:
        codes.append(0)  # leading zero-length blank run
    for run_len in lengths:
        run_len = int(run_len)
        while run_len > MAX_RUN:
            codes.append(MAX_RUN)
            codes.append(0)  # zero run of the opposite class
            run_len -= MAX_RUN
        codes.append(run_len)
    return np.asarray(codes, dtype=np.uint16)


def _rle_decode_mask_loop(codes: np.ndarray, n: int) -> np.ndarray:
    """Original per-run decoder; oracle for the vectorized decode."""
    codes = np.asarray(codes, dtype=np.uint16)
    if codes.ndim != 1:
        raise WireFormatError(f"codes must be 1-D, got shape {codes.shape}")
    total = int(codes.sum(dtype=np.int64))
    if total != n:
        raise WireFormatError(f"run lengths sum to {total}, expected {n}")
    mask = np.zeros(n, dtype=bool)
    pos = 0
    blank = True
    for code in codes:
        run = int(code)
        if not blank and run:
            mask[pos : pos + run] = True
        pos += run
        blank = not blank
    return mask
