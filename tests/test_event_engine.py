"""Event engine vs lockstep oracle: bit-identical results, by construction.

The simulator's min-heap scheduler and the round-robin
:class:`~oracles.LockstepSimulator` share every matching/pricing
routine; only the order in which ranks are *scheduled* differs, and
blocking-op completions are pure functions of the two posts.  These
tests pin that equivalence end to end: raw simulator programs, per-rank
trace sequences, full compositing runs across every method family, and
the deadlock diagnostics both schedulers must produce identically.
"""

import contextlib

import pytest

from oracles import LockstepSimulator, lockstep
from repro.cluster.model import IDEALIZED, SP2
from repro.cluster.simulator import Simulator
from repro.errors import DeadlockError, SimulationError
from repro.experiments.scale import VIEW_DIR, synthetic_subimages
from repro.pipeline.system import run_compositing
from repro.volume.partition import recursive_bisect


#: The production scheduler and the reference it is checked against.
SIMULATORS = {"event": Simulator, "lockstep": LockstepSimulator}
ENGINES = tuple(SIMULATORS)


def run_both(num_ranks, program_factory, model=IDEALIZED, **kwargs):
    results = {}
    for engine, simulator in SIMULATORS.items():
        sim = simulator(num_ranks, model, **kwargs)
        results[engine] = (sim.run(program_factory), sim)
    return results


def assert_equivalent(results):
    (ev, _), (ls, _) = results["event"], results["lockstep"]
    assert ev.makespan == ls.makespan
    assert ev.returns == ls.returns
    for re_, rl in zip(ev.rank_stats, ls.rank_stats):
        assert re_.comm_time == rl.comm_time
        assert re_.comp_time == rl.comp_time
        assert re_.bytes_sent == rl.bytes_sent
        assert re_.msgs_sent == rl.msgs_sent


def ring_program(frames, nbytes, compute_s):
    """Pipelined ring composite: each frame's token circulates the ring.

    Fully serialized, so exactly one rank can progress at any virtual
    instant: the lockstep engine rescans every rank per hop."""

    def factory(ctx):
        async def program():
            size, rank = ctx.size, ctx.rank
            for frame in range(frames):
                if rank == 0:
                    if frame:
                        await ctx.recv(size - 1, tag=frame - 1)
                    await ctx.send(1, b"t", nbytes=nbytes, tag=frame)
                else:
                    await ctx.recv(rank - 1, tag=frame)
                    await ctx.compute(compute_s)
                    await ctx.send((rank + 1) % size, b"t", nbytes=nbytes, tag=frame)
            if rank == 0:
                await ctx.recv(size - 1, tag=frames - 1)

        return program()

    return factory


def swap_gather_program(frames):
    """Binary-swap rounds plus a serialized root gather, per frame."""

    def factory(ctx):
        async def program():
            size, rank = ctx.size, ctx.rank
            for frame in range(frames):
                ctx.begin_stage(frame)
                nbytes = 16384
                for k in range(size.bit_length() - 1):
                    nbytes //= 2
                    await ctx.sendrecv(
                        rank ^ (1 << k), b"x", nbytes=nbytes, tag=frame * 64 + k
                    )
                if rank == 0:
                    for src in range(1, size):
                        await ctx.recv(src, tag=frame * 64 + 63)
                else:
                    await ctx.send(0, b"g", nbytes=256, tag=frame * 64 + 63)

        return program()

    return factory


def per_rank_trace(sim):
    by_rank = {}
    for ev in sim.trace_events:
        by_rank.setdefault(ev.rank, []).append((ev.time, ev.kind, ev.detail))
    return by_rank


class TestRawPrograms:
    def test_ring_pipeline(self):
        assert_equivalent(run_both(8, ring_program(3, 512, 0.5)))

    @pytest.mark.parametrize(
        "program",
        [ring_program(12, 1024, 1e-7), swap_gather_program(4)],
        ids=["ring", "swap+gather"],
    )
    def test_p256_workloads(self, program):
        assert_equivalent(run_both(256, program, SP2))

    def test_binary_swap_rounds(self):
        def factory(ctx):
            async def program():
                size, rank = ctx.size, ctx.rank
                nbytes = 4096
                for k in range(size.bit_length() - 1):
                    nbytes //= 2
                    await ctx.sendrecv(rank ^ (1 << k), b"x", nbytes=nbytes, tag=k)
                    await ctx.compute(0.25)

            return program()

        assert_equivalent(run_both(16, factory))

    def test_nonblocking_wait_all(self):
        def factory(ctx):
            async def program():
                size, rank = ctx.size, ctx.rank
                reqs = [
                    await ctx.isend((rank + 1) % size, b"a", nbytes=128, tag=7),
                    await ctx.irecv((rank - 1) % size, tag=7),
                ]
                await ctx.wait_all(reqs)
                await ctx.compute(1.0)

            return program()

        assert_equivalent(run_both(8, factory))

    def test_per_rank_traces_identical(self):
        # The global interleaving of trace events legitimately differs
        # between schedulers; each rank's *own* ordered sequence may not.
        def factory(ctx):
            async def program():
                size, rank = ctx.size, ctx.rank
                await ctx.compute(float(rank + 1))
                await ctx.sendrecv(rank ^ 1, b"p", nbytes=256, tag=0)
                if rank % 2 == 0:
                    await ctx.send(rank + 1, b"q", nbytes=64, tag=1)
                else:
                    await ctx.recv(rank - 1, tag=1)

            return program()

        results = run_both(8, factory, trace=True)
        assert per_rank_trace(results["event"][1]) == per_rank_trace(
            results["lockstep"][1]
        )

    def test_determinism_across_runs(self):
        def factory(ctx):
            async def program():
                size, rank = ctx.size, ctx.rank
                await ctx.sendrecv(rank ^ 1, b"x", nbytes=1024, tag=0)
                await ctx.sendrecv(rank ^ 2, b"y", nbytes=512, tag=1)

            return program()

        sims = [Simulator(8, SP2, trace=True) for _ in range(2)]
        runs = [sim.run(factory) for sim in sims]
        assert runs[0].makespan == runs[1].makespan
        assert [s.trace_events for s in sims][0] == [s.trace_events for s in sims][1]

    def test_max_steps_enforced(self):
        def factory(ctx):
            async def program():
                while True:
                    await ctx.compute(0.001)

            return program()

        with pytest.raises(SimulationError, match="max_steps"):
            Simulator(2, IDEALIZED, max_steps=100).run(factory)


class TestDeadlockDiagnostics:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_last_progress_reported(self, engine):
        def factory(ctx):
            async def program():
                await ctx.compute(1.0 + ctx.rank)
                await ctx.recv((ctx.rank + 1) % ctx.size, tag=0)  # cycle

            return program()

        with pytest.raises(DeadlockError) as info:
            SIMULATORS[engine](4, IDEALIZED).run(factory)
        err = info.value
        assert set(err.blocked) == {0, 1, 2, 3}
        # Each rank last progressed when it posted its recv, at t=1+rank.
        assert err.last_progress == {r: 1.0 + r for r in range(4)}
        assert "idle since" in str(err)

    def test_engines_agree_on_deadlock(self):
        def factory(ctx):
            async def program():
                if ctx.rank == 0:
                    await ctx.recv(1, tag=9)  # never sent

            return program()

        diagnostics = []
        for simulator in SIMULATORS.values():
            with pytest.raises(DeadlockError) as info:
                simulator(2, IDEALIZED).run(factory)
            diagnostics.append((info.value.blocked, info.value.last_progress))
        assert diagnostics[0] == diagnostics[1]


class TestCompositingEquivalence:
    """Every method family, event vs lockstep, exact equality."""

    METHODS = [
        ("bs", {}),
        ("bsbr", {}),
        ("bslc", {}),
        ("bsbrc", {}),
        ("direct", {}),
        ("direct-async", {}),
        ("radix-k:rect-rle", {"radix": (4, 2)}),
    ]
    #: (method, options, P, image side, fill): every family on a small
    #: scene, and bsbrc at P=64 on the 96 px, 20 % fill scene.
    CASES = [(m, o, 8, 32, 0.3) for m, o in METHODS] + [("bsbrc", {}, 64, 96, 0.2)]

    @pytest.mark.parametrize(
        "method,options,num_ranks,size,fill",
        CASES,
        ids=[m for m, _ in METHODS] + ["bsbrc-p64"],
    )
    def test_methods_identical_across_engines(self, method, options, num_ranks, size, fill):
        import numpy as np

        plan = recursive_bisect((16, 16, 16), num_ranks)
        runs = {}
        for engine in ENGINES:
            images = synthetic_subimages(num_ranks, size, fill)
            with lockstep() if engine == "lockstep" else contextlib.nullcontext():
                runs[engine] = run_compositing(
                    images, method, plan, VIEW_DIR, SP2, **options
                )
        ev, ls = runs["event"], runs["lockstep"]
        assert ev.stats.makespan == ls.stats.makespan
        for oe, ol in zip(ev.outcomes, ls.outcomes):
            for pe, pl in zip(oe, ol, strict=True):
                assert np.array_equal(pe.intensity, pl.intensity)
                assert np.array_equal(pe.opacity, pl.opacity)
        for se, sl in zip(ev.stats.rank_stats, ls.stats.rank_stats):
            assert se.bytes_sent == sl.bytes_sent
            assert se.msgs_sent == sl.msgs_sent
            assert se.comm_time == sl.comm_time
            assert se.comp_time == sl.comp_time
            for stage in se.stages:
                be, bl = se.stages[stage], sl.stages[stage]
                assert be.bytes_sent == bl.bytes_sent
                assert be.msgs_sent == bl.msgs_sent
                assert be.counters == bl.counters
