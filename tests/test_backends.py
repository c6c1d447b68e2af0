"""Backend.run() returns a uniform result on every substrate."""

import pytest

from repro.cluster.backend import (
    BACKENDS,
    BackendRunResult,
    MPBackend,
    SimBackend,
    make_backend,
)
from repro.cluster.model import SP2
from repro.cluster.run_timeline import TIMELINE_SCHEMA
from repro.errors import ConfigurationError


async def _pair_program(ctx, base):
    """XOR-partner exchange; each rank reports its partner's payload size."""
    ctx.begin_stage(0)
    peer = ctx.rank ^ 1
    payload = bytes(base + ctx.rank)
    got = await ctx.sendrecv(peer, payload, tag=0) if ctx.size > 1 else payload
    await ctx.charge_over(50)
    await ctx.barrier()
    return len(got)


async def _nonblocking_program(ctx):
    """Overlapped isend/irecv with out-of-order waits (FIFO pairing)."""
    ctx.begin_stage(0)
    peer = ctx.rank ^ 1
    if ctx.rank == 0:
        first = await ctx.isend(peer, b"first", tag=5)
        second = await ctx.isend(peer, b"second!", tag=5)
        await ctx.wait_all([first, second])
        return None
    req_a = await ctx.irecv(peer, tag=5)
    req_b = await ctx.irecv(peer, tag=5)
    # Waiting the *second* request first must still pair payloads in
    # post order: req_a gets the first message, req_b the second.
    late = await ctx.wait(req_b)
    early = await ctx.wait(req_a)
    return early, late


class TestSimBackend:
    def test_uniform_result(self):
        result = SimBackend().run(4, _pair_program, (3,), model=SP2)
        assert isinstance(result, BackendRunResult)
        assert result.backend == "sim" and result.clock == "modelled"
        assert result.returns == [4, 3, 6, 5]
        assert result.makespan > 0
        assert result.wall_times == [0.0] * 4
        assert all(rs.stage(0).counters["over"] == 50 for rs in result.rank_stats)

    def test_model_is_required(self):
        with pytest.raises(ConfigurationError, match="MachineModel"):
            SimBackend().run(2, _pair_program, (0,))

    def test_trace_flag_fills_events(self):
        traced = SimBackend().run(2, _pair_program, (0,), model=SP2, trace=True)
        untraced = SimBackend().run(2, _pair_program, (0,), model=SP2)
        assert traced.trace_events and not untraced.trace_events


class TestMPBackend:
    def test_uniform_result(self):
        result = MPBackend().run(2, _pair_program, (3,))
        assert result.backend == "mp" and result.clock == "wall"
        assert result.returns == [4, 3]
        assert len(result.wall_times) == 2 and all(w > 0 for w in result.wall_times)
        assert result.makespan == max(result.wall_times)
        assert all(rs.stage(0).counters["over"] == 50 for rs in result.rank_stats)

    def test_perf_reports_per_rank(self):
        result = MPBackend().run(2, _pair_program, (0,))
        assert len(result.rank_perf) == 2
        for report in result.rank_perf:
            assert "backend.mp.rank_program" in report["timers"]

    def test_nonblocking_verbs_with_out_of_order_waits(self):
        result = MPBackend().run(2, _nonblocking_program)
        assert result.returns[1] == (b"first", b"second!")

    def test_byte_counters_match_simulator(self):
        sim = SimBackend().run(4, _pair_program, (3,), model=SP2)
        mp = MPBackend().run(4, _pair_program, (3,))
        for rs_sim, rs_mp in zip(sim.rank_stats, mp.rank_stats):
            assert rs_sim.bytes_sent == rs_mp.bytes_sent
            assert rs_sim.bytes_recv == rs_mp.bytes_recv
            assert rs_sim.msgs_sent == rs_mp.msgs_sent
            assert rs_sim.msgs_recv == rs_mp.msgs_recv


class TestRegistry:
    def test_both_backends_registered(self):
        assert set(BACKENDS) == {"sim", "mp"}
        assert isinstance(make_backend("sim"), SimBackend)
        assert isinstance(make_backend("mp"), MPBackend)

    def test_unknown_backend_rejected(self):
        for name in ("threads", "mpi"):
            with pytest.raises(ConfigurationError, match="unknown backend"):
                make_backend(name)


class TestTimelineExport:
    def test_every_backend_exports_the_same_schema(self):
        sim_tl = SimBackend().run(2, _pair_program, (0,), model=SP2).timeline()
        mp_tl = MPBackend().run(2, _pair_program, (0,)).timeline()
        assert sim_tl.to_dict()["schema"] == TIMELINE_SCHEMA
        assert mp_tl.to_dict()["schema"] == TIMELINE_SCHEMA
        assert sim_tl.clock == "modelled" and mp_tl.clock == "wall"
