"""Cross-check the paper's analytic eqs. (1)-(8) against the simulator.

The simulator charges the very same constants the equations use, so with
the observed per-stage sparsity quantities plugged in, the predicted
``T_comp``/``T_comm`` must match the simulated critical-rank times
exactly (up to float rounding).
"""

import pytest

from conftest import rendered_workload
from repro.analysis.models import (
    StageObservation,
    predict_bs,
    predict_bsbr,
    predict_bsbrc,
    predict_bslc,
)
from repro.cluster.model import SP2
from repro.cluster.hypercube import log2_int
from repro.pipeline.system import run_compositing

NUM_RANKS = 8
IMAGE_PIXELS = 48 * 48


def observations_for(rank_stats, stages):
    out = []
    for k in range(stages):
        bucket = rank_stats.stages.get(k)
        counters = bucket.counters if bucket else {}
        out.append(
            StageObservation(
                a_rec=counters.get("a_rec", 0),
                a_opaque=counters.get("a_opaque", 0),
                r_code=counters.get("r_code", 0),
                a_send=counters.get("a_send", 0),
            )
        )
    return out


@pytest.fixture(scope="module")
def workload():
    return rendered_workload("engine_low", NUM_RANKS)


def run_without_pack(subimages, method, plan, camera):
    """A free pack (``tpack=0``) isolates the equations' exact terms."""
    return run_compositing(
        list(subimages), method, plan, camera.view_dir, SP2.with_overrides(tpack=0.0)
    )


class TestPredictBS:
    def test_comp_and_comm_exact(self, workload):
        subimages, plan, camera = workload
        run = run_without_pack(subimages, "bs", plan, camera)
        predicted = predict_bs(SP2, IMAGE_PIXELS, NUM_RANKS)
        stats = run.stats
        assert stats.t_comp == pytest.approx(predicted.t_comp, rel=1e-12)
        assert stats.t_comm == pytest.approx(predicted.t_comm, rel=1e-12)

    def test_scaling_in_p(self):
        small = predict_bs(SP2, IMAGE_PIXELS, 2)
        large = predict_bs(SP2, IMAGE_PIXELS, 64)
        # T_comp grows toward the To*A asymptote.
        assert small.t_comp < large.t_comp < SP2.over_time(IMAGE_PIXELS)

    def test_total_property(self):
        p = predict_bs(SP2, 1024, 4)
        assert p.t_total == pytest.approx(p.t_comp + p.t_comm)


class TestPredictBSBR:
    def test_matches_simulated_critical_rank(self, workload):
        subimages, plan, camera = workload
        run = run_without_pack(subimages, "bsbr", plan, camera)
        stats = run.stats
        rank_stats = stats.rank_stats[stats.critical_rank]
        obs = observations_for(rank_stats, log2_int(NUM_RANKS))
        predicted = predict_bsbr(SP2, IMAGE_PIXELS, obs)
        assert stats.t_comp == pytest.approx(predicted.t_comp, rel=1e-12)
        assert stats.t_comm == pytest.approx(predicted.t_comm, rel=1e-12)

    def test_matches_every_rank(self, workload):
        subimages, plan, camera = workload
        run = run_without_pack(subimages, "bsbr", plan, camera)
        for rank_stats in run.stats.rank_stats:
            obs = observations_for(rank_stats, log2_int(NUM_RANKS))
            predicted = predict_bsbr(SP2, IMAGE_PIXELS, obs)
            assert rank_stats.comp_time == pytest.approx(predicted.t_comp, rel=1e-12)
            assert rank_stats.comm_time == pytest.approx(predicted.t_comm, rel=1e-12)

    def test_empty_rects_zero_pixel_terms(self):
        obs = [StageObservation(a_rec=0)] * 3
        predicted = predict_bsbr(SP2, 1000, obs)
        assert predicted.t_comp == pytest.approx(SP2.bound_time(1000))
        assert predicted.t_comm == pytest.approx(3 * (SP2.ts + 8 * SP2.tc))


class TestPredictBSLC:
    def test_matches_simulated(self, workload):
        """BSLC halves are interleaved so per-stage sent counts can be off
        by a section; feed the *observed* encode counts into the formula
        instead of A/2^k and the match is exact."""
        subimages, plan, camera = workload
        run = run_without_pack(subimages, "bslc", plan, camera)
        for rank_stats in run.stats.rank_stats:
            obs = observations_for(rank_stats, log2_int(NUM_RANKS))
            predicted = predict_bslc(SP2, IMAGE_PIXELS, obs)
            # Encode term of the formula uses the ideal A/2^k; observed
            # counts deviate by at most one section per stage.
            encode_slack = SP2.encode_time(128) * log2_int(NUM_RANKS)
            assert abs(rank_stats.comp_time - predicted.t_comp) <= encode_slack + 1e-12
            assert rank_stats.comm_time == pytest.approx(predicted.t_comm, rel=1e-12)


class TestPredictBSBRC:
    def test_matches_simulated(self, workload):
        subimages, plan, camera = workload
        run = run_without_pack(subimages, "bsbrc", plan, camera)
        for rank_stats in run.stats.rank_stats:
            obs = observations_for(rank_stats, log2_int(NUM_RANKS))
            predicted = predict_bsbrc(SP2, IMAGE_PIXELS, obs)
            assert rank_stats.comp_time == pytest.approx(predicted.t_comp, rel=1e-12)
            assert rank_stats.comm_time == pytest.approx(predicted.t_comm, rel=1e-12)

    def test_paper_shape_bslc_comp_dominates(self, workload):
        """The paper's asymptotic claim: BSLC's encode-everything term
        makes its predicted T_comp the largest of the three methods."""
        subimages, plan, camera = workload
        preds = {}
        for method, predict in (
            ("bsbr", predict_bsbr),
            ("bslc", predict_bslc),
            ("bsbrc", predict_bsbrc),
        ):
            run = run_without_pack(subimages, method, plan, camera)
            stats = run.stats
            rank_stats = stats.rank_stats[stats.critical_rank]
            obs = observations_for(rank_stats, log2_int(NUM_RANKS))
            preds[method] = predict(SP2, IMAGE_PIXELS, obs)
        assert preds["bslc"].t_comp > preds["bsbr"].t_comp
        assert preds["bslc"].t_comp > preds["bsbrc"].t_comp
        # ... while its communication is the smallest (eq. 9's corollary).
        assert preds["bslc"].t_comm <= preds["bsbr"].t_comm
        assert preds["bslc"].t_comm <= preds["bsbrc"].t_comm
