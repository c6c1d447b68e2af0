"""Hypothesis fuzzing of the cluster simulator.

Generates random but well-formed SPMD communication programs (pairwise
exchanges, ring shifts, random compute, nonblocking batches) and checks
the global invariants no particular schedule should be able to violate:

* conservation — total bytes/messages sent equals total received;
* determinism — identical programs produce identical timings;
* monotonicity — makespan >= every rank's busy time;
* data integrity — payloads arrive exactly once, unmodified.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster.model import MachineModel
from repro.cluster.simulator import Simulator

MODEL = MachineModel(name="fuzz", ts=1e-4, tc=1e-6, to=1e-6, tencode=1e-6, tbound=1e-6)

COMMON = dict(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# One program step per stage: which pattern the ranks run, plus knobs.
step_strategy = st.tuples(
    st.sampled_from(["exchange", "ring", "compute", "nonblocking"]),
    st.integers(0, 2**16),  # payload-size seed
    st.integers(0, 2),      # stage-local bit (exchange distance etc.)
)

program_strategy = st.tuples(
    st.sampled_from([2, 4, 8]),
    st.lists(step_strategy, min_size=1, max_size=6),
)


def build_program(num_ranks, steps):
    async def program(ctx):
        received = []
        for index, (kind, seed, knob) in enumerate(steps):
            ctx.begin_stage(index)
            nbytes = (seed % 4096) + 1
            if kind == "exchange":
                distance = 1 << (knob % num_ranks.bit_length())
                if distance >= num_ranks:
                    distance = 1
                peer = ctx.rank ^ distance
                if peer < num_ranks:
                    payload = (ctx.rank, index, b"x" * nbytes)
                    got = await ctx.sendrecv(peer, payload, tag=index)
                    received.append((got[0], got[1], len(got[2])))
            elif kind == "ring":
                nxt = (ctx.rank + 1) % num_ranks
                prv = (ctx.rank - 1) % num_ranks
                if num_ranks == 2:
                    got = await ctx.sendrecv(nxt, (ctx.rank, nbytes), tag=index)
                elif ctx.rank % 2 == 0:
                    await ctx.send(nxt, (ctx.rank, nbytes), nbytes=nbytes, tag=index)
                    got = await ctx.recv(prv, tag=index)
                else:
                    got = await ctx.recv(prv, tag=index)
                    await ctx.send(nxt, (ctx.rank, nbytes), nbytes=nbytes, tag=index)
                received.append(got[0])
            elif kind == "compute":
                await ctx.compute((seed % 100) * 1e-6, kind="fuzz", count=1)
            else:  # nonblocking
                peer = ctx.rank ^ 1
                if peer < num_ranks:
                    recv_req = await ctx.irecv(peer, tag=1000 + index)
                    send_req = await ctx.isend(
                        peer, bytes([index % 251]) * nbytes, tag=1000 + index
                    )
                    data = await ctx.wait(recv_req)
                    await ctx.wait(send_req)
                    received.append(len(data))
        return received

    return program


class TestFuzz:
    @given(case=program_strategy)
    @settings(**COMMON)
    def test_conservation(self, case):
        num_ranks, steps = case
        result = Simulator(num_ranks, MODEL).run(build_program(num_ranks, steps))
        sent = sum(rs.bytes_sent for rs in result.rank_stats)
        recv = sum(rs.bytes_recv for rs in result.rank_stats)
        assert sent == recv
        msgs_out = sum(rs.msgs_sent for rs in result.rank_stats)
        msgs_in = sum(rs.msgs_recv for rs in result.rank_stats)
        assert msgs_out == msgs_in

    @given(case=program_strategy)
    @settings(**COMMON)
    def test_determinism(self, case):
        num_ranks, steps = case
        first = Simulator(num_ranks, MODEL).run(build_program(num_ranks, steps))
        second = Simulator(num_ranks, MODEL).run(build_program(num_ranks, steps))
        assert first.returns == second.returns
        assert first.makespan == second.makespan
        for a, b in zip(first.rank_stats, second.rank_stats):
            assert a.comp_time == b.comp_time
            assert a.comm_time == b.comm_time
            assert a.wait_time == b.wait_time

    @given(case=program_strategy)
    @settings(**COMMON)
    def test_makespan_bounds_busy_time(self, case):
        num_ranks, steps = case
        result = Simulator(num_ranks, MODEL).run(build_program(num_ranks, steps))
        for rank_stats in result.rank_stats:
            busy = rank_stats.comp_time + rank_stats.comm_time + rank_stats.wait_time
            assert result.makespan >= busy - 1e-12

    @given(case=program_strategy)
    @settings(**COMMON)
    def test_times_nonnegative(self, case):
        num_ranks, steps = case
        result = Simulator(num_ranks, MODEL).run(build_program(num_ranks, steps))
        for rank_stats in result.rank_stats:
            for stage in rank_stats.stages.values():
                assert stage.comp_time >= 0
                assert stage.comm_time >= 0
                assert stage.wait_time >= 0
