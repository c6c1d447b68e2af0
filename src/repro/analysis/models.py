"""The paper's analytic cost model — eqs. (1)-(8) in executable form.

Given a machine model and the *observed* per-stage sparsity quantities
(``A_rec^k``, ``A_opaque^k``, ``R_code^k``, ``A_send^k``), these
functions predict per-processor computation and communication time for
each method.  The harness cross-checks them against the simulated
execution: because the simulator charges the very same constants, the
predictions must agree up to synchronization skew (which the analytic
model ignores but real — and simulated — runs include in ``T_comm``).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cluster.model import MachineModel
from ..cluster.hypercube import log2_int
from ..types import PIXEL_BYTES, RECT_INFO_BYTES, RLE_CODE_BYTES

__all__ = [
    "StageObservation",
    "predict_bs",
    "predict_bsbr",
    "predict_bslc",
    "predict_bsbrc",
    "Prediction",
]


@dataclass(frozen=True)
class StageObservation:
    """Sparsity quantities of one compositing stage for one rank.

    ``a_rec``    — pixels inside the receiving bounding rectangle
    (``A_rec^k``), 0 when empty;
    ``a_opaque`` — non-blank pixels received (``A_opaque^k``);
    ``r_code``   — run-length code elements received (``R_code^k``);
    ``a_send``   — pixels inside the sending bounding rectangle
    (``A_send^k``).
    """

    a_rec: int = 0
    a_opaque: int = 0
    r_code: int = 0
    a_send: int = 0


@dataclass(frozen=True)
class Prediction:
    """Predicted per-processor times for one method (seconds)."""

    t_comp: float
    t_comm: float

    @property
    def t_total(self) -> float:
        return self.t_comp + self.t_comm


def predict_bs(model: MachineModel, num_pixels: int, num_ranks: int) -> Prediction:
    """Eqs. (1)-(2): plain binary swap."""
    stages = log2_int(num_ranks)
    t_comp = 0.0
    t_comm = 0.0
    for k in range(1, stages + 1):
        half = num_pixels // (2**k)
        t_comp += model.to * half
        t_comm += model.ts + PIXEL_BYTES * half * model.tc
    return Prediction(t_comp=t_comp, t_comm=t_comm)


def predict_bsbr(
    model: MachineModel, num_pixels: int, observations: list[StageObservation]
) -> Prediction:
    """Eqs. (3)-(4): bounding rectangle.

    ``observations[k]`` supplies ``A_rec^k`` (0 when the receiving
    rectangle is empty, which zeroes the pixel terms — the ``[B(k)]``
    indicator).
    """
    t_comp = model.tbound * num_pixels
    t_comm = 0.0
    for obs in observations:
        t_comp += model.to * obs.a_rec
        t_comm += model.ts + (RECT_INFO_BYTES + PIXEL_BYTES * obs.a_rec) * model.tc
    return Prediction(t_comp=t_comp, t_comm=t_comm)


def predict_bslc(
    model: MachineModel,
    num_pixels: int,
    observations: list[StageObservation],
) -> Prediction:
    """Eqs. (5)-(6): RLE + static load balancing.

    The encode term scans the whole sending half (``A/2^k``); the wire
    carries the observed code elements and non-blank pixels.
    """
    t_comp = 0.0
    t_comm = 0.0
    for k, obs in enumerate(observations, start=1):
        half = num_pixels // (2**k)
        t_comp += model.tencode * half + model.to * obs.a_opaque
        t_comm += model.ts + (
            RLE_CODE_BYTES * obs.r_code + PIXEL_BYTES * obs.a_opaque
        ) * model.tc
    return Prediction(t_comp=t_comp, t_comm=t_comm)


def predict_bsbrc(
    model: MachineModel,
    num_pixels: int,
    observations: list[StageObservation],
) -> Prediction:
    """Eqs. (7)-(8): bounding rectangle + RLE inside it."""
    t_comp = model.tbound * num_pixels
    t_comm = 0.0
    for obs in observations:
        t_comp += model.tencode * obs.a_send + model.to * obs.a_opaque
        t_comm += model.ts + (
            RECT_INFO_BYTES + RLE_CODE_BYTES * obs.r_code + PIXEL_BYTES * obs.a_opaque
        ) * model.tc
    return Prediction(t_comp=t_comp, t_comm=t_comm)
