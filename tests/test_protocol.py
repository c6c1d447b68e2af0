"""The shared rank-context protocol and single-pass payload encoding."""

import pickle

import numpy as np
import pytest

from repro.cluster.backend import MPBackend, SimBackend
from repro.cluster.context import RankContext
from repro.cluster.model import SP2
from repro.cluster.mp_backend import MPRankContext
from repro.cluster.protocol import (
    BaseRankContext,
    decode_payload,
    drive,
    encode_payload,
    payload_nbytes,
)
from repro.errors import ConfigurationError, SimulationError


class TestAbcCompleteness:
    """A substrate that forgets a verb must fail at class level, not at
    runtime deep inside a compositing stage."""

    @pytest.mark.parametrize(
        "cls", [RankContext, MPRankContext], ids=lambda c: c.__name__
    )
    def test_every_substrate_implements_the_full_surface(self, cls):
        assert issubclass(cls, BaseRankContext)
        assert not cls.__abstractmethods__, (
            f"{cls.__name__} leaves abstract: {sorted(cls.__abstractmethods__)}"
        )

    def test_incomplete_substrate_cannot_instantiate(self):
        class Forgetful(BaseRankContext):
            # Implements nothing: every abstract verb remains.
            pass

        with pytest.raises(TypeError):
            Forgetful()

    def test_backend_names_are_distinct(self):
        names = {
            RankContext.backend_name,
            MPRankContext.backend_name,
        }
        assert len(names) == 2
        assert BaseRankContext.backend_name not in names


class TestEncodePayload:
    def test_none_is_zero_byte_control(self):
        wire, nbytes, pickled = encode_payload(None)
        assert wire is None and nbytes == 0 and not pickled

    def test_bytes_pass_through(self):
        blob = b"abcde"
        wire, nbytes, pickled = encode_payload(blob)
        assert wire is blob and nbytes == 5 and not pickled
        assert decode_payload(wire, pickled) is blob

    def test_ndarray_reports_buffer_size(self):
        arr = np.zeros((3, 4), dtype=np.float64)
        wire, nbytes, pickled = encode_payload(arr)
        assert wire is arr and nbytes == 96 and not pickled

    def test_object_is_pickled_once_and_roundtrips(self):
        payload = {"rect": (1, 2, 3), "vals": [0.5, 0.25]}
        wire, nbytes, pickled = encode_payload(payload)
        assert pickled and isinstance(wire, bytes) and nbytes == len(wire)
        assert decode_payload(wire, pickled) == payload

    def test_explicit_nbytes_overrides_price_not_wire(self):
        wire, nbytes, pickled = encode_payload(b"abcdef", nbytes=2)
        assert nbytes == 2 and wire == b"abcdef"

    def test_unpicklable_demands_explicit_size(self):
        with pytest.raises(ConfigurationError, match="nbytes"):
            encode_payload(lambda: None)

    def test_payload_nbytes_agrees_with_encode(self):
        for payload in (None, b"xyz", np.arange(7), {"k": 1}, (1, "two", 3.0)):
            assert payload_nbytes(payload) == encode_payload(payload).nbytes


class _PickleCounter:
    """Counts how many times pickle serializes an instance."""

    dumps = 0

    def __getstate__(self):
        type(self).dumps += 1
        return {"tag": "counted"}

    def __setstate__(self, state):
        self.tag = state["tag"]

    def __eq__(self, other):
        return isinstance(other, (_PickleCounter, type(self)))


class TestSerializeOnce:
    """The old path pickled once to *measure* and again to *ship*."""

    def test_encode_pickles_exactly_once(self):
        _PickleCounter.dumps = 0
        encoded = encode_payload(_PickleCounter())
        assert _PickleCounter.dumps == 1
        # The priced size IS the shipped blob; no second pass needed.
        assert encoded.nbytes == len(encoded.wire)
        assert isinstance(pickle.loads(encoded.wire), _PickleCounter)

    def test_mp_transport_ships_without_repickling_payload(self):
        # The frame wraps the already-pickled blob as bytes; shipping the
        # frame re-pickles the *blob* (cheap memcpy), never the payload.
        _PickleCounter.dumps = 0
        encoded = encode_payload(_PickleCounter())
        frame = pickle.dumps((0, encoded.wire, encoded.nbytes, encoded.pickled))
        assert _PickleCounter.dumps == 1
        tag, wire, nbytes, pickled = pickle.loads(frame)
        assert decode_payload(wire, pickled) == _PickleCounter()


async def _exchange_object(ctx):
    """Both ranks trade a non-buffer payload and report stage-0 bytes."""
    ctx.begin_stage(0)
    payload = {"rank": 7, "data": list(range(10))}  # same object on both ranks
    await ctx.sendrecv(ctx.rank ^ 1, payload, tag=3)
    bucket = ctx.stats.stage(0)
    return bucket.bytes_sent, bucket.bytes_recv


class TestPricingParity:
    def test_sim_and_mp_price_the_same_payload_identically(self):
        sim = SimBackend().run(2, _exchange_object, model=SP2)
        mp = MPBackend().run(2, _exchange_object)
        assert sim.returns == mp.returns
        assert sim.returns[0][0] > 0  # a pickled dict is not free


class TestDrive:
    def test_returns_coroutine_value(self):
        async def program():
            return 41 + 1

        assert drive(program()) == 42

    def test_rejects_simulator_only_primitives(self):
        from repro.cluster.events import ComputeOp

        async def program():
            await ComputeOp(1.0)

        with pytest.raises(SimulationError, match="real transport"):
            drive(program())
