"""Semantics tests for the discrete-event cluster simulator."""

import pytest

from repro.cluster.events import ANY_TAG
from repro.cluster.model import IDEALIZED, MachineModel
from repro.cluster.simulator import Simulator
from repro.errors import ConfigurationError, DeadlockError, RankFailedError, SimulationError

UNIT = MachineModel(name="unit", ts=1.0, tc=0.001, to=1.0, tencode=1.0, tbound=1.0)


def run(num_ranks, program, model=IDEALIZED, **kwargs):
    return Simulator(num_ranks, model, **kwargs).run(program)


class TestCompute:
    def test_compute_advances_clock(self):
        async def program(ctx):
            await ctx.compute(2.5)
            await ctx.compute(1.5)

        result = run(1, program)
        assert result.makespan == pytest.approx(4.0)
        assert result.rank_stats[0].comp_time == pytest.approx(4.0)

    def test_compute_counters(self):
        async def program(ctx):
            ctx.begin_stage(0)
            await ctx.compute(1.0, kind="over", count=100)
            await ctx.compute(1.0, kind="over", count=50)

        result = run(1, program)
        assert result.rank_stats[0].counter_total("over") == 150

    def test_negative_compute_rejected(self):
        async def program(ctx):
            await ctx.compute(-1.0)

        with pytest.raises(RankFailedError):
            run(1, program)

    def test_charge_helpers_use_model(self):
        async def program(ctx):
            await ctx.charge_over(10)
            await ctx.charge_encode(20)
            await ctx.charge_bound(30)

        result = run(1, program, model=UNIT)
        assert result.rank_stats[0].comp_time == pytest.approx(60.0)


class TestPointToPoint:
    def test_send_recv_payload(self):
        async def program(ctx):
            if ctx.rank == 0:
                await ctx.send(1, b"hello", tag=7)
                return None
            return await ctx.recv(0, tag=7)

        result = run(2, program)
        assert result.returns[1] == b"hello"

    def test_send_recv_timing(self):
        async def program(ctx):
            if ctx.rank == 0:
                await ctx.send(1, b"x" * 1000)
            else:
                await ctx.recv(0)

        result = run(2, program, model=UNIT)
        # Completion at Ts + 1000*Tc = 1 + 1 = 2 on both sides.
        assert result.makespan == pytest.approx(2.0)
        assert result.rank_stats[0].comm_time == pytest.approx(2.0)

    def test_wait_attributed_separately(self):
        async def program(ctx):
            if ctx.rank == 0:
                await ctx.compute(10.0)
                await ctx.send(1, b"x" * 1000)
            else:
                await ctx.recv(0)

        result = run(2, program, model=UNIT)
        receiver = result.rank_stats[1]
        assert receiver.wait_time == pytest.approx(10.0)
        assert receiver.comm_time == pytest.approx(2.0)
        sender = result.rank_stats[0]
        assert sender.wait_time == pytest.approx(0.0)

    def test_tag_mismatch_deadlocks(self):
        async def program(ctx):
            if ctx.rank == 0:
                await ctx.send(1, b"x", tag=1)
            else:
                await ctx.recv(0, tag=2)

        with pytest.raises(DeadlockError):
            run(2, program)

    def test_any_tag_matches(self):
        async def program(ctx):
            if ctx.rank == 0:
                await ctx.send(1, b"x", tag=99)
            else:
                return await ctx.recv(0, tag=ANY_TAG)

        result = run(2, program)
        assert result.returns[1] == b"x"

    def test_byte_accounting(self):
        async def program(ctx):
            ctx.begin_stage(0)
            if ctx.rank == 0:
                await ctx.send(1, b"x" * 123)
            else:
                await ctx.recv(0)

        result = run(2, program)
        assert result.rank_stats[0].bytes_sent == 123
        assert result.rank_stats[1].bytes_recv == 123
        assert result.rank_stats[0].msgs_sent == 1
        assert result.rank_stats[1].msgs_recv == 1
        assert result.mmax_bytes == 123

    def test_explicit_nbytes_overrides_payload(self):
        async def program(ctx):
            if ctx.rank == 0:
                await ctx.send(1, b"xxxx", nbytes=999)
            else:
                await ctx.recv(0)

        result = run(2, program)
        assert result.rank_stats[1].bytes_recv == 999


class TestSendRecv:
    def test_exchange_payloads(self):
        async def program(ctx):
            peer = ctx.rank ^ 1
            return await ctx.sendrecv(peer, ctx.rank * 10)

        result = run(2, program)
        assert result.returns == [10, 0]

    def test_exchange_charges_incoming_bytes(self):
        async def program(ctx):
            peer = ctx.rank ^ 1
            payload = b"x" * (1000 if ctx.rank == 0 else 3000)
            await ctx.sendrecv(peer, payload)

        result = run(2, program, model=UNIT)
        # rank 0 receives 3000B -> 1 + 3 = 4; rank 1 receives 1000B -> 2.
        assert result.rank_stats[0].comm_time == pytest.approx(4.0)
        assert result.rank_stats[1].comm_time == pytest.approx(2.0)
        assert result.makespan == pytest.approx(4.0)

    def test_self_exchange_rejected(self):
        async def program(ctx):
            await ctx.sendrecv(ctx.rank, b"x")

        with pytest.raises(RankFailedError):
            run(2, program)

    def test_four_rank_butterfly(self):
        async def program(ctx):
            seen = [ctx.rank]
            for stage in range(2):
                peer = ctx.rank ^ (1 << stage)
                theirs = await ctx.sendrecv(peer, seen, tag=stage)
                seen = sorted(set(seen) | set(theirs))
            return seen

        result = run(4, program)
        assert all(r == [0, 1, 2, 3] for r in result.returns)


class TestFailureModes:
    def test_deadlock_reports_blocked_ranks(self):
        async def program(ctx):
            await ctx.recv(1 - ctx.rank)

        with pytest.raises(DeadlockError) as excinfo:
            run(2, program)
        assert set(excinfo.value.blocked) == {0, 1}

    def test_rank_exception_wrapped(self):
        async def program(ctx):
            if ctx.rank == 1:
                raise ValueError("boom")
            await ctx.recv(1)

        with pytest.raises(RankFailedError) as excinfo:
            run(2, program)
        assert excinfo.value.rank == 1
        assert isinstance(excinfo.value.original, ValueError)

    def test_peer_out_of_range(self):
        async def program(ctx):
            await ctx.send(5, b"x")

        with pytest.raises(RankFailedError):
            run(2, program)

    def test_non_coroutine_program_rejected(self):
        with pytest.raises(ConfigurationError):
            Simulator(1, IDEALIZED).run(lambda ctx: 42)  # type: ignore[arg-type]

    def test_max_steps_guard(self):
        async def program(ctx):
            while True:
                await ctx.compute(0.0)

        with pytest.raises(SimulationError):
            run(1, program, max_steps=100)

    def test_zero_ranks_rejected(self):
        with pytest.raises(ConfigurationError):
            Simulator(0, IDEALIZED)


class TestDeterminism:
    def test_identical_runs(self):
        async def program(ctx):
            total = 0
            for stage in range(3):
                peer = ctx.rank ^ (1 << stage)
                got = await ctx.sendrecv(peer, ctx.rank * (stage + 1), tag=stage)
                await ctx.compute(0.001 * (got + 1))
                total += got
            return total

        first = run(8, program, model=UNIT)
        second = run(8, program, model=UNIT)
        assert first.returns == second.returns
        assert first.makespan == second.makespan
        for a, b in zip(first.rank_stats, second.rank_stats):
            assert a.comp_time == b.comp_time
            assert a.comm_time == b.comm_time


class TestTrace:
    def test_trace_records_events(self):
        async def program(ctx):
            await ctx.compute(1.0)
            peer = ctx.rank ^ 1
            await ctx.sendrecv(peer, b"x")

        sim = Simulator(2, IDEALIZED, trace=True)
        sim.run(program)
        kinds = {event.kind for event in sim.trace_events}
        assert {"compute", "post", "exch", "done"} <= kinds

    def test_trace_off_by_default(self):
        async def program(ctx):
            await ctx.compute(1.0)

        sim = Simulator(1, IDEALIZED)
        sim.run(program)
        assert sim.trace_events == []


class TestStageBuckets:
    def test_stage_routing(self):
        async def program(ctx):
            ctx.begin_stage(0)
            await ctx.compute(1.0)
            ctx.begin_stage(1)
            await ctx.compute(2.0)

        result = run(1, program)
        stats = result.rank_stats[0]
        assert stats.stages[0].comp_time == pytest.approx(1.0)
        assert stats.stages[1].comp_time == pytest.approx(2.0)

    def test_default_stage_is_pre_stage(self):
        from repro.cluster.stats import PRE_STAGE

        async def program(ctx):
            await ctx.compute(1.0)

        result = run(1, program)
        assert PRE_STAGE in result.rank_stats[0].stages
