"""Tests for the root gather built on the simulated network."""

import pytest

from repro.cluster.collectives import gather
from repro.cluster.model import IDEALIZED, MachineModel
from repro.cluster.simulator import Simulator
from repro.errors import RankFailedError


def run(num_ranks, program, model=IDEALIZED):
    return Simulator(num_ranks, model).run(program)


class TestGather:
    @pytest.mark.parametrize("num_ranks", [1, 2, 3, 4, 8])
    def test_gather_to_zero(self, num_ranks):
        async def program(ctx):
            return await gather(ctx, ctx.rank * ctx.rank)

        result = run(num_ranks, program)
        assert result.returns[0] == [r * r for r in range(num_ranks)]
        assert all(v is None for v in result.returns[1:])

    def test_gather_nonzero_root(self):
        async def program(ctx):
            return await gather(ctx, chr(ord("a") + ctx.rank), root=2)

        result = run(4, program)
        assert result.returns[2] == ["a", "b", "c", "d"]
        assert result.returns[0] is None

    def test_gather_bad_root(self):
        async def program(ctx):
            await gather(ctx, 1, root=9)

        with pytest.raises(RankFailedError):
            run(2, program)

    def test_gather_traffic_counted(self):
        model = MachineModel(name="m", ts=0, tc=1.0, to=0, tencode=0, tbound=0)

        async def program(ctx):
            await gather(ctx, b"x" * 10)

        result = run(4, program, model=model)
        assert result.rank_stats[0].bytes_recv == 30
