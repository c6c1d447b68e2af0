"""The Network/Topology plane: pricing, parsing, and its two contracts.

Two properties anchor the plane (ISSUE satellite): contention can only
*delay* — no topology ever beats the paper's flat link on the same
workload — and a topology whose shared links are free (single-switch
fat-tree, or infinite capacity at zero hop latency) reproduces flat
timings *exactly*, not approximately.
"""

import math

import numpy as np
import pytest

from repro.cluster.backend import MPBackend
from repro.cluster.model import (
    IDEALIZED,
    SP2,
    ContentionNetwork,
    DragonflyNetwork,
    FatTreeNetwork,
    FlatNetwork,
    NETWORKS,
    TorusNetwork,
    make_network,
)
from repro.errors import ConfigurationError
from repro.experiments.scale import VIEW_DIR, synthetic_subimages
from repro.pipeline.config import RunConfig
from repro.pipeline.system import run_compositing
from repro.volume.partition import recursive_bisect


def composite_makespan(network, num_ranks=16, method="bsbrc"):
    plan = recursive_bisect((16, 16, 16), num_ranks)
    images = synthetic_subimages(num_ranks, 32, 0.3)
    run = run_compositing(images, method, plan, VIEW_DIR, SP2, network=network)
    return run.stats.makespan, run


class TestFlatNetwork:
    def test_matches_model_pricing(self):
        net = FlatNetwork(SP2)
        net.reset(8)
        for nbytes in (0, 1, 4096):
            assert net.deliver(0, 5, nbytes, 2.5) == 2.5 + SP2.message_time(nbytes)

    def test_none_network_equals_flat_network(self):
        bare, _ = composite_makespan(None)
        flat, _ = composite_makespan(FlatNetwork(SP2))
        assert bare == flat


class TestContentionPricing:
    def test_shared_link_serializes(self):
        net = FatTreeNetwork(SP2, radix=4, capacity=2.0)
        net.reset(16)
        # Two messages from switch 0 to switch 1 share both links.
        first = net.deliver(0, 4, 1000, 0.0)
        second = net.deliver(1, 5, 1000, 0.0)
        assert second > first  # queued behind the first crossing
        crossing = 1000 * SP2.tc / 2.0
        assert first == (SP2.message_time(1000) + crossing) + crossing

    def test_intra_switch_is_flat(self):
        net = FatTreeNetwork(SP2, radix=8)
        net.reset(16)
        assert net.deliver(0, 7, 2048, 1.0) == 1.0 + SP2.message_time(2048)

    def test_reset_clears_queues(self):
        net = FatTreeNetwork(SP2, radix=2, capacity=1.0)
        net.reset(4)
        first = net.deliver(0, 2, 4096, 0.0)
        net.reset(4)
        assert net.deliver(0, 2, 4096, 0.0) == first

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            FatTreeNetwork(SP2, capacity=0.0)
        with pytest.raises(ConfigurationError):
            FatTreeNetwork(SP2, hop_latency=-1.0)
        with pytest.raises(ConfigurationError):
            FatTreeNetwork(SP2, radix=0)
        with pytest.raises(ConfigurationError):
            TorusNetwork(SP2, capacity=float("nan"))

    def test_torus_dims_must_tile_ranks(self):
        net = TorusNetwork(SP2, dims=(3, 5))
        with pytest.raises(ConfigurationError):
            net.reset(16)
        net.reset(15)  # 3x5 tiles 15 ranks

    def test_dragonfly_global_links_are_slower(self):
        net = DragonflyNetwork(SP2, group_size=4, capacity=8.0, global_capacity=1.0)
        net.reset(16)
        local = net.capacity_of(("exit", 0))
        global_ = net.capacity_of(("global", 0, 1))
        assert local == 8.0 and global_ == 1.0


class TestContentionMonotonicity:
    """Contention never decreases the makespan versus the flat link."""

    TOPOLOGIES = [
        ("fat-tree", lambda: FatTreeNetwork(SP2, radix=4, capacity=2.0)),
        ("torus", lambda: TorusNetwork(SP2, capacity=1.0)),
        ("dragonfly", lambda: DragonflyNetwork(SP2, group_size=4, global_capacity=0.5)),
        ("fat-tree-latency", lambda: FatTreeNetwork(SP2, radix=4, hop_latency=1e-4)),
    ]

    @pytest.mark.parametrize("name,make", TOPOLOGIES, ids=[n for n, _ in TOPOLOGIES])
    @pytest.mark.parametrize("method", ["bs", "bsbrc", "direct"])
    def test_never_faster_than_flat(self, name, make, method):
        flat, _ = composite_makespan(None, method=method)
        contended, _ = composite_makespan(make(), method=method)
        assert contended >= flat

    def test_point_to_point_monotone(self):
        flat = FlatNetwork(SP2)
        flat.reset(16)
        net = TorusNetwork(SP2, capacity=0.5)
        net.reset(16)
        for src, dst, nbytes, start in [(0, 15, 1024, 0.0), (3, 9, 64, 1.0), (7, 7, 0, 2.0)]:
            assert net.deliver(src, dst, nbytes, start) >= flat.deliver(
                src, dst, nbytes, start
            )


class TestExactFlatDegradation:
    """Free shared links reproduce flat timings exactly (bit-equal)."""

    FREE = [
        ("single-switch-fat-tree", lambda: FatTreeNetwork(SP2, radix=64, capacity=2.0)),
        (
            "fat-tree-inf",
            lambda: FatTreeNetwork(SP2, radix=4, capacity=math.inf, hop_latency=0.0),
        ),
        ("torus-inf", lambda: TorusNetwork(SP2, capacity=math.inf)),
        (
            "dragonfly-inf",
            lambda: DragonflyNetwork(
                SP2, group_size=4, capacity=math.inf, global_capacity=math.inf
            ),
        ),
    ]

    @pytest.mark.parametrize("name,make", FREE, ids=[n for n, _ in FREE])
    def test_exactly_flat(self, name, make):
        flat, flat_run = composite_makespan(None)
        free, free_run = composite_makespan(make())
        assert free == flat  # exact, not approx: the fast path keeps no state
        for oa, ob in zip(flat_run.outcomes, free_run.outcomes):
            assert np.array_equal(oa.image.intensity, ob.image.intensity)
        for sa, sb in zip(flat_run.stats.rank_stats, free_run.stats.rank_stats):
            assert sa.comm_time == sb.comm_time
            assert sa.bytes_sent == sb.bytes_sent


class TestMakeNetwork:
    def test_registry_names(self):
        assert set(NETWORKS) == {"flat", "fat-tree", "torus", "dragonfly"}

    def test_defaults_and_passthrough(self):
        assert make_network(None, SP2).name == "flat"
        assert make_network("flat", SP2).name == "flat"
        net = FatTreeNetwork(SP2)
        assert make_network(net, SP2) is net

    def test_spec_options(self):
        net = make_network("fat-tree:radix=8,capacity=2.5", SP2)
        assert isinstance(net, FatTreeNetwork)
        assert net.radix == 8 and net.capacity == 2.5

    def test_dims_and_inf_coercion(self):
        net = make_network("torus:dims=4x8,capacity=inf", SP2)
        assert net.dims == (4, 8) and net.capacity == math.inf

    def test_unknown_topology(self):
        with pytest.raises(ConfigurationError, match="unknown topology"):
            make_network("hypercube", SP2)

    def test_unknown_option(self):
        with pytest.raises(ConfigurationError, match="option"):
            make_network("fat-tree:bogus=1", SP2)

    def test_bad_value(self):
        with pytest.raises(ConfigurationError):
            make_network("fat-tree:radix=fast", SP2)


class TestRunConfigIntegration:
    def test_topology_validated_at_construction(self):
        with pytest.raises(ConfigurationError):
            RunConfig(topology="hypercube")
        with pytest.raises(ConfigurationError):
            RunConfig(topology="fat-tree:bogus=1")
        with pytest.raises(ConfigurationError, match="capacity must be > 0"):
            RunConfig(topology="torus:capacity=0")

    def test_flat_builds_no_network(self):
        assert RunConfig().build_network() is None
        assert RunConfig(topology="flat").build_network() is None

    def test_topology_builds_network_with_capacity(self):
        net = RunConfig(topology="torus:capacity=2.0").build_network()
        direct = TorusNetwork(SP2, capacity=2.0)
        assert isinstance(net, TorusNetwork)
        assert (net.dims, net.capacity) == (direct.dims, direct.capacity)
        assert net.capacity == 2.0
        assert RunConfig(topology="torus:capacity=inf").build_network().capacity == math.inf


class TestHardwareBackendsRejectTopologies:
    @pytest.mark.parametrize("backend_cls", [MPBackend])
    def test_non_flat_network_rejected(self, backend_cls):
        net = FatTreeNetwork(IDEALIZED, radix=2)
        with pytest.raises(ConfigurationError, match="--backend 'sim'"):
            backend_cls().run(2, lambda ctx: None, network=net)

    @pytest.mark.parametrize("backend_cls", [MPBackend])
    def test_flat_network_accepted_by_validator(self, backend_cls):
        from repro.cluster.backend import _require_flat_network

        _require_flat_network(backend_cls.name, None)
        _require_flat_network(backend_cls.name, FlatNetwork(IDEALIZED))
