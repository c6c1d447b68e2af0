"""Byte/time accounting of the four paper methods vs the paper's formulas."""

import numpy as np
import pytest

from conftest import rendered_workload
from repro.cluster.model import SP2
from repro.cluster.hypercube import log2_int
from repro.pipeline.system import run_compositing
from repro.types import PIXEL_BYTES, RECT_INFO_BYTES

NUM_RANKS = 8
IMAGE_PIXELS = 48 * 48


@pytest.fixture(scope="module")
def runs():
    subimages, plan, camera = rendered_workload("engine_low", NUM_RANKS)
    return {
        method: run_compositing(list(subimages), method, plan, camera.view_dir, SP2)
        for method in ("bs", "bsbr", "bslc", "bsbrc")
    }


class TestBSAccounting:
    def test_bytes_match_equation_2(self, runs):
        """BS receives exactly 16 * A/2^k bytes per stage on every rank."""
        stats = runs["bs"].stats
        stages = log2_int(NUM_RANKS)
        for rank_stats in stats.rank_stats:
            for k in range(stages):
                expected = PIXEL_BYTES * (IMAGE_PIXELS // (2 ** (k + 1)))
                assert rank_stats.stages[k].bytes_recv == expected

    def test_over_counts_match_equation_1(self, runs):
        stats = runs["bs"].stats
        stages = log2_int(NUM_RANKS)
        expected = sum(IMAGE_PIXELS // (2 ** (k + 1)) for k in range(stages))
        for rank_stats in stats.rank_stats:
            assert rank_stats.counter_total("over") == expected

    def test_message_count(self, runs):
        stats = runs["bs"].stats
        for rank_stats in stats.rank_stats:
            assert rank_stats.msgs_recv == log2_int(NUM_RANKS)
            assert rank_stats.msgs_sent == log2_int(NUM_RANKS)

    def test_content_independent(self):
        """BS traffic is identical for blank and dense images."""
        from repro.cluster.model import IDEALIZED
        from repro.render.image import SubImage
        from repro.volume.partition import recursive_bisect

        plan = recursive_bisect((32, 32, 16), 4)
        blanks = [SubImage.blank(32, 32) for _ in range(4)]
        run = run_compositing(blanks, "bs", plan, np.array([0, 0, -1.0]), IDEALIZED)
        per_rank = 16 * (512 + 256)
        assert all(rs.bytes_recv == per_rank for rs in run.stats.rank_stats)


class TestBSBRAccounting:
    def test_rect_header_always_ships(self, runs):
        """Even empty rectangles cost 8 bytes — eq. (4)'s constant term."""
        stats = runs["bsbr"].stats
        stages = log2_int(NUM_RANKS)
        for rank_stats in stats.rank_stats:
            for k in range(stages):
                assert rank_stats.stages[k].bytes_recv >= RECT_INFO_BYTES

    def test_bytes_match_equation_4(self, runs):
        """Received bytes = 8 + 16 * a_rec per stage (a_rec from counters)."""
        stats = runs["bsbr"].stats
        for rank_stats in stats.rank_stats:
            for k in range(log2_int(NUM_RANKS)):
                bucket = rank_stats.stages[k]
                a_rec = bucket.counters.get("a_rec", 0)
                assert bucket.bytes_recv == RECT_INFO_BYTES + PIXEL_BYTES * a_rec

    def test_over_matches_a_rec(self, runs):
        stats = runs["bsbr"].stats
        for rank_stats in stats.rank_stats:
            assert rank_stats.counter_total("over") == rank_stats.counter_total("a_rec")

    def test_bound_scan_charged_once(self, runs):
        from repro.cluster.stats import PRE_STAGE

        stats = runs["bsbr"].stats
        for rank_stats in stats.rank_stats:
            assert rank_stats.stages[PRE_STAGE].counters.get("bound") == IMAGE_PIXELS

    def test_never_more_bytes_than_bs(self, runs):
        bs = runs["bs"].stats
        bsbr = runs["bsbr"].stats
        slack = RECT_INFO_BYTES * log2_int(NUM_RANKS)
        for rank in range(NUM_RANKS):
            assert (
                bsbr.rank_stats[rank].bytes_recv
                <= bs.rank_stats[rank].bytes_recv + slack
            )


class TestBSLCAccounting:
    def test_encode_scans_whole_sending_half(self, runs):
        """Eq. (5): the encode term is A/2^k pixels per stage."""
        stats = runs["bslc"].stats
        stages = log2_int(NUM_RANKS)
        for rank_stats in stats.rank_stats:
            for k in range(stages):
                # Interleaved halves may differ by up to one section, but
                # total sent+kept is exact; check the encode count is a
                # half within section slack.
                encoded = rank_stats.stages[k].counters.get("encode", 0)
                half = IMAGE_PIXELS // (2 ** (k + 1))
                assert abs(encoded - half) <= 128  # DEFAULT_SECTION

    def test_over_matches_received_opaque(self, runs):
        stats = runs["bslc"].stats
        for rank_stats in stats.rank_stats:
            assert rank_stats.counter_total("over") == rank_stats.counter_total(
                "a_opaque"
            )

    def test_smallest_mmax(self, runs):
        mmax = {m: runs[m].stats.mmax_bytes for m in runs}
        assert mmax["bslc"] == min(mmax.values())


class TestBSBRCAccounting:
    def test_encode_restricted_to_send_rect(self, runs):
        """BSBRC's claim: encode work == sending-rect pixels, which is
        never more than BSLC's whole sending half (summed over stages)."""
        bsbrc = runs["bsbrc"].stats
        bslc = runs["bslc"].stats
        for rank in range(NUM_RANKS):
            assert (
                bsbrc.rank_stats[rank].counter_total("encode")
                <= bslc.rank_stats[rank].counter_total("encode")
            )
            assert bsbrc.rank_stats[rank].counter_total("encode") == bsbrc.rank_stats[
                rank
            ].counter_total("a_send")

    def test_over_composites_only_opaque(self, runs):
        bsbrc = runs["bsbrc"].stats
        bsbr = runs["bsbr"].stats
        for rank in range(NUM_RANKS):
            opaque = bsbrc.rank_stats[rank].counter_total("over")
            rect_pixels = bsbr.rank_stats[rank].counter_total("over")
            assert opaque == bsbrc.rank_stats[rank].counter_total("a_opaque")
            assert opaque <= rect_pixels

    def test_bytes_below_bsbr(self, runs):
        """Eq. (9) middle inequality, per rank (code overhead bounded)."""
        assert runs["bsbrc"].stats.mmax_bytes <= runs["bsbr"].stats.mmax_bytes


class TestEquation9:
    @pytest.mark.parametrize("dataset", ["engine_low", "engine_high", "head", "cube"])
    @pytest.mark.parametrize("num_ranks", [2, 4, 8, 16])
    def test_mmax_ordering(self, dataset, num_ranks):
        """Paper eq. (9), which holds "in general": the BS >= BSBR >= BSBRC
        legs are strict (BSBRC's payload is a subset of BSBR's pixels plus
        bounded code overhead); the BSBRC >= BSLC leg can flip by a few
        hundred bytes of run-code fragmentation at unit-test image sizes,
        so it is asserted with that slack here and strictly at paper scale
        in the benchmark harness (bench_mmax)."""
        subimages, plan, camera = rendered_workload(dataset, num_ranks)
        mmax = {}
        for method in ("bs", "bsbr", "bslc", "bsbrc"):
            run = run_compositing(list(subimages), method, plan, camera.view_dir, SP2)
            mmax[method] = run.stats.mmax_bytes
        assert mmax["bs"] >= mmax["bsbr"] >= mmax["bsbrc"]
        assert mmax["bslc"] <= mmax["bsbr"]
        slack = max(512, mmax["bsbrc"] // 2)
        assert mmax["bslc"] <= mmax["bsbrc"] + slack


class TestTimingConsistency:
    def test_comp_time_equals_charged_ops(self, runs):
        """T_comp must be exactly the model-priced operation counts."""
        for method, run in runs.items():
            for rank_stats in run.stats.rank_stats:
                expected = (
                    SP2.over_time(rank_stats.counter_total("over"))
                    + SP2.encode_time(rank_stats.counter_total("encode"))
                    + SP2.bound_time(rank_stats.counter_total("bound"))
                    + SP2.pack_time(rank_stats.counter_total("pack"))
                )
                assert rank_stats.comp_time == pytest.approx(expected), method

    def test_comm_time_equals_priced_messages(self, runs):
        """T_comm = sum of Ts + incoming_bytes*Tc over stages (no wait)."""
        for method, run in runs.items():
            stats = run.stats
            for rank_stats in stats.rank_stats:
                expected = sum(
                    SP2.ts * st.msgs_recv + SP2.transfer_time(st.bytes_recv)
                    for st in rank_stats.stages.values()
                )
                assert rank_stats.comm_time == pytest.approx(expected), method

    def test_makespan_at_least_critical_path(self, runs):
        for run in runs.values():
            stats = run.stats
            assert stats.makespan >= stats.t_total - 1e-12
