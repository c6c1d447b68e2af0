"""Tests for the real-transport (multiprocessing) backend.

Kept small and fast — the host has one core, so these validate
correctness of the transport port, not performance.
"""

import pytest

from conftest import reference_image
from repro.cluster.mp_backend import MPRankContext, run_rank_programs_mp
from repro.cluster.stats import merge_counters
from repro.errors import ConfigurationError, SimulationError
from repro.pipeline.config import RunConfig
from repro.pipeline.system import SortLastSystem

SMALL = dict(image_size=32, volume_shape=(32, 32, 16))


# Programs must be module-level (picklable / fork-visible).
async def _echo_program(ctx):
    peer = ctx.rank ^ 1
    return await ctx.sendrecv(peer, f"hello-from-{ctx.rank}", tag=1)


async def _ring_program(ctx):
    nxt = (ctx.rank + 1) % ctx.size
    prv = (ctx.rank - 1) % ctx.size
    if ctx.rank % 2 == 0:
        await ctx.send(nxt, ctx.rank, tag=0)
        value = await ctx.recv(prv, tag=0)
    else:
        value = await ctx.recv(prv, tag=0)
        await ctx.send(nxt, ctx.rank, tag=0)
    return value


async def _counter_program(ctx):
    await ctx.charge_over(123)
    ctx.note("custom", 7)
    return ctx.rank


async def _failing_program(ctx):
    if ctx.rank == 1:
        raise ValueError("intentional")
    await ctx.recv(1)


async def _yielding_program(ctx):
    from repro.cluster.events import ComputeOp

    await ComputeOp(1.0)  # simulator-only primitive


class TestRawBackend:
    def test_sendrecv(self):
        result = run_rank_programs_mp(2, _echo_program, timeout=30)
        assert result.returns == ["hello-from-1", "hello-from-0"]

    def test_ring(self):
        result = run_rank_programs_mp(4, _ring_program, timeout=30)
        assert result.returns == [3, 0, 1, 2]

    def test_counters_collected(self):
        result = run_rank_programs_mp(2, _counter_program, timeout=30)
        assert result.returns == [0, 1]
        for stats in result.rank_stats:
            counters = merge_counters(stats.stages.values())
            assert counters["over"] == 123
            assert counters["custom"] == 7

    def test_failure_surfaces(self):
        with pytest.raises(SimulationError) as excinfo:
            run_rank_programs_mp(2, _failing_program, timeout=15)
        assert "rank 1" in str(excinfo.value)

    def test_simulator_only_ops_rejected(self):
        with pytest.raises(SimulationError):
            run_rank_programs_mp(1, _yielding_program, timeout=15)

    def test_bad_rank_count(self):
        with pytest.raises(ConfigurationError):
            run_rank_programs_mp(0, _echo_program)

    def test_context_validation(self):
        ctx = MPRankContext(0, 2, None, 1.0)
        with pytest.raises(ConfigurationError):
            ctx._check_peer(5)
        with pytest.raises(ConfigurationError):
            ctx.model


class TestCompositingCrossValidation:
    """The whole pipeline on a *real* transport, through its one entry
    point ``SortLastSystem(cfg).run(backend="mp")``, against the
    independent sequential oracle.  (Bit parity of mp vs the simulator,
    pixels and integer counters, is ``tests/test_backend_parity.py``.)"""

    @staticmethod
    def _run_mp(method, num_ranks):
        cfg = RunConfig(
            dataset="engine_low", method=method, num_ranks=num_ranks,
            comm_timeout=45, **SMALL,
        )
        return SortLastSystem(cfg).run(backend="mp")

    @pytest.mark.parametrize("method", ["bs", "bsbr", "bslc", "bsbrc"])
    def test_matches_simulator_reference(self, method):
        result = self._run_mp(method, 4)
        assert result.backend_name == "mp"
        # The oracle is rendered and composited in this process, not by
        # the workers.
        reference = reference_image(
            "engine_low", 4, SMALL["image_size"], (20.0, 30.0, 0.0),
            SMALL["volume_shape"],
        )
        assert result.final_image.max_abs_diff(reference) < 1e-9

    def test_folded_non_pow2(self):
        result = self._run_mp("bsbrc", 3)
        assert result.final_image.max_abs_diff(result.reference_image()) < 1e-9
