"""Schedule-exploration engine: policies, trace record/replay, explorer.

Covers the :class:`~repro.cluster.schedule_policy.SchedulePolicy` hook
in the event engine (tie / wildcard / fault freedom), the pinned
invariants no policy may relax (exact-before-wildcard, FIFO per
channel), the ``repro.sched-trace/1`` record/replay loop, the
:class:`~repro.cluster.explore.Explorer` classification harness, the
delivery-order insensitivity of the tile-routed plane, and the CLI
``explore`` surface.
"""

import json
import os

import numpy as np
import pytest

from conftest import route_tiles
from repro.cluster.explore import (
    EXPLORE_REPORT_SCHEMA,
    Explorer,
    _destructive,
    default_fault_plan,
)
from repro.cluster.backend import MPBackend
from repro.cluster.events import ANY_TAG
from repro.cluster.faults import FaultPlan, FaultRule
from repro.cluster.model import SP2
from repro.cluster.schedule_policy import (
    ADVERSARIAL_MODES,
    SCHED_TRACE_SCHEMA,
    AdversarialPolicy,
    ForcedPrefixPolicy,
    RandomPolicy,
    ReplayPolicy,
    SchedulePolicy,
    load_trace,
    make_policy,
)
from repro.cluster.simulator import Simulator
from repro.errors import (
    ConfigurationError,
    DeadlockError,
    LivelockError,
    ReproError,
)
from repro.pipeline.config import RunConfig
from repro.pipeline.system import SortLastSystem

SMALL = dict(dataset="engine_low", volume_shape=(16, 16, 8), image_size=16)


def _system(method="binary-swap:raw", num_ranks=4, **overrides):
    cfg_kwargs = dict(SMALL)
    cfg_kwargs.update(overrides)
    return SortLastSystem(RunConfig(method=method, num_ranks=num_ranks, **cfg_kwargs))


def _pixels(image):
    return np.stack([image.intensity, image.opacity])


def _counters(timeline):
    out = []
    for rs in timeline.rank_stats:
        for st in rs.sorted_stages():
            out.append(
                (rs.rank, st.stage, st.bytes_sent, st.bytes_recv,
                 st.msgs_sent, st.msgs_recv, tuple(sorted(st.counters.items())))
            )
    return out


# ---------------------------------------------------------------------------
# Policy objects and trace serialization
# ---------------------------------------------------------------------------
class TestPolicyBasics:
    def test_make_policy_specs(self):
        assert make_policy("deterministic").name == "deterministic"
        assert make_policy("random").name == "random:0"
        assert make_policy("random:17").name == "random:17"
        assert make_policy("random", seed=5).name == "random:5"
        assert make_policy("adversarial").name == "adversarial:starve-low"
        assert make_policy("adversarial:lifo").name == "adversarial:lifo"
        assert make_policy("dfs").name == "dfs:0"
        assert isinstance(make_policy("dfs"), ForcedPrefixPolicy)
        assert type(make_policy("deterministic")) is SchedulePolicy

    def test_make_policy_walk_index(self):
        assert make_policy("random", seed=5, index=2).name == "random:7"
        assert make_policy("random:17", seed=5, index=2).name == "random:19"
        assert [
            make_policy("adversarial", index=i).name for i in range(5)
        ] == [f"adversarial:{m}" for m in ADVERSARIAL_MODES + ADVERSARIAL_MODES[:1]]
        assert make_policy("adversarial:lifo", index=3).name == "adversarial:lifo"
        assert make_policy("deterministic", index=3).name == "deterministic"

    def test_make_policy_rejects_unknown(self):
        with pytest.raises(ConfigurationError, match="unknown schedule policy"):
            make_policy("fifo")
        with pytest.raises(ConfigurationError, match="unknown schedule policy"):
            _explorer().run("fifo", 0)

    def test_adversarial_rejects_unknown_mode(self):
        with pytest.raises(ConfigurationError, match="unknown adversarial mode"):
            AdversarialPolicy("chaotic")

    def test_decide_validates_choice(self):
        class Bad(SchedulePolicy):
            explores = True

            def choose_index(self, kind, candidates, digest):
                return 99

        with pytest.raises(ConfigurationError, match="chose index 99"):
            Bad().decide("tie", [{"rank": 0, "seq": 0}], "digest")

    def test_decisions_recorded(self):
        policy = RandomPolicy(0)
        policy.decide("tie", [{"rank": 0, "seq": 0}, {"rank": 1, "seq": 1}], "d")
        policy.fault_decision(2, 0, "crash", 0.5, default=False)
        assert [d["kind"] for d in policy.decisions] == ["tie", "fault"]
        assert policy.decisions[1]["rank"] == 2 and policy.decisions[1]["n"] == 2

    def test_trace_roundtrip(self, tmp_path):
        policy = RandomPolicy(3)
        policy.decide("tie", [{"rank": 0, "seq": 0}, {"rank": 1, "seq": 2}], "abc")
        path = policy.save_trace(str(tmp_path / "t.json"), meta={"k": "v"})
        assert policy.trace_path == path
        trace = load_trace(path)
        assert trace["schema"] == SCHED_TRACE_SCHEMA
        assert trace["policy"] == "random:3"
        assert trace["meta"] == {"k": "v"}
        replay = ReplayPolicy(trace)
        assert replay.name == "replay:random:3"
        assert replay.recorded == policy.decisions

    def test_load_trace_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "repro.fault-plan/1"}))
        with pytest.raises(ConfigurationError, match="unsupported schedule-trace"):
            load_trace(str(path))


# ---------------------------------------------------------------------------
# The deterministic policy is the existing engine, bit for bit
# ---------------------------------------------------------------------------
class TestDeterministicOracle:
    def test_bit_identical_to_no_policy(self):
        base = _system().run()
        policy = SchedulePolicy()
        explored = _system().run(schedule_policy=policy)
        assert policy.decisions == []  # never consulted
        assert np.array_equal(_pixels(base.final_image), _pixels(explored.final_image))
        assert _counters(base.timeline) == _counters(explored.timeline)
        assert base.timeline.makespan == explored.timeline.makespan

    @pytest.mark.parametrize("method", ["binary-swap:raw", "tile-routed:rle"])
    @pytest.mark.parametrize("num_ranks", [4, 8])
    def test_explored_clean_runs_stay_bit_identical(self, method, num_ranks):
        """Satellite invariant: policy shuffles (delivery reorderings)
        never change pixels or integer counters — only float timings."""
        base = _system(method, num_ranks).run()
        policies = [RandomPolicy(11), RandomPolicy(12)] + [
            AdversarialPolicy(mode) for mode in ADVERSARIAL_MODES
        ]
        for policy in policies:
            run = _system(method, num_ranks).run(schedule_policy=policy)
            assert np.array_equal(
                _pixels(base.final_image), _pixels(run.final_image)
            ), f"{method} P={num_ranks} pixels drifted under {policy.name}"
            assert _counters(base.timeline) == _counters(run.timeline), (
                f"{method} P={num_ranks} counters drifted under {policy.name}"
            )


# ---------------------------------------------------------------------------
# Pinned matching invariants (satellite: wildcard-tie documentation fix)
# ---------------------------------------------------------------------------
def _all_policies():
    return [SchedulePolicy(), RandomPolicy(1), RandomPolicy(2)] + [
        AdversarialPolicy(mode) for mode in ADVERSARIAL_MODES
    ]


class TestPinnedInvariants:
    def test_fifo_per_channel_unviolable(self):
        """Messages on one (src, dst, tag) channel deliver in post order
        under every policy — only deque heads are wildcard candidates."""

        async def program(ctx):
            if ctx.rank == 0:
                reqs = [await ctx.isend(1, f"m{i}".encode(), tag=7) for i in range(4)]
                for req in reqs:
                    await ctx.wait(req)
                return None
            await ctx.compute(1e-6)
            got = []
            for _ in range(4):
                req = await ctx.irecv(0, tag=ANY_TAG)
                got.append(await ctx.wait(req))
            return got

        for policy in _all_policies():
            result = Simulator(2, SP2, policy=policy).run(program)
            assert result.returns[1] == [b"m0", b"m1", b"m2", b"m3"], policy.name

    def test_exact_tag_beats_wildcard(self):
        """An arriving isend is offered to the exact-tag irecv first;
        no policy may hand it to a pending wildcard instead.

        A "go" message forces the causal order (both irecvs posted
        before either isend) so the invariant is exercised no matter
        which rank a policy runs first at the t=0 tie.
        """

        async def program(ctx):
            if ctx.rank == 1:
                await ctx.recv(0, tag=0)  # wait until both irecvs exist
                req = await ctx.isend(0, b"tagged", tag=9)
                await ctx.wait(req)
                req = await ctx.isend(0, b"other", tag=3)
                await ctx.wait(req)
                return None
            wild = await ctx.irecv(1, tag=ANY_TAG)
            exact = await ctx.irecv(1, tag=9)
            await ctx.send(1, b"go", tag=0)
            got_exact = await ctx.wait(exact)
            got_wild = await ctx.wait(wild)
            return (got_exact, got_wild)

        for policy in _all_policies():
            result = Simulator(2, SP2, policy=policy).run(program)
            assert result.returns[0] == (b"tagged", b"other"), policy.name

    def test_wildcard_default_is_oldest_post_then_tag(self):
        """The documented oracle order: oldest post wins, exact tag value
        breaks equal posts — not an arbitrary 'broken by tag' rule."""

        async def program(ctx):
            if ctx.rank == 0:
                r6 = await ctx.isend(1, b"six", tag=6)
                r5 = await ctx.isend(1, b"five", tag=5)
                await ctx.wait(r6)
                await ctx.wait(r5)
                return None
            await ctx.compute(1e-6)
            first = await ctx.wait(await ctx.irecv(0, tag=ANY_TAG))
            second = await ctx.wait(await ctx.irecv(0, tag=ANY_TAG))
            return (first, second)

        result = Simulator(2, SP2).run(program)
        # Both isends post at the same virtual time: the lower tag wins
        # the tie even though it was issued second.
        assert result.returns[1] == (b"five", b"six")


# ---------------------------------------------------------------------------
# The seeded ordering bug: caught, trace saved, replays to the same failure
# ---------------------------------------------------------------------------
def _buggy_wildcard_program():
    """A receiver that assumes its ANY_TAG wait always matches tag 5.

    Under the default order it does (oldest post wins); a policy that
    draws the wildcard from the newest channel hands it tag 6 instead,
    and the later exact ``irecv(tag=6)`` starves: deadlock.
    """

    async def program(ctx):
        if ctx.rank == 0:
            r5 = await ctx.isend(1, b"five", tag=5)
            r6 = await ctx.isend(1, b"six", tag=6)
            await ctx.wait(r5)
            await ctx.wait(r6)
            return "src"
        await ctx.compute(1e-6)
        first = await ctx.wait(await ctx.irecv(0, tag=ANY_TAG))
        second = await ctx.wait(await ctx.irecv(0, tag=6))
        return (first, second)

    return program


class TestSeededOrderingBug:
    def test_deterministic_order_hides_the_bug(self):
        result = Simulator(2, SP2, policy=SchedulePolicy()).run(
            _buggy_wildcard_program()
        )
        assert result.returns == ["src", (b"five", b"six")]

    def test_adversarial_exposes_and_trace_replays_it(self, tmp_path):
        policy = AdversarialPolicy("starve-high")
        with pytest.raises(DeadlockError) as excinfo:
            Simulator(2, SP2, policy=policy).run(_buggy_wildcard_program())
        err = excinfo.value
        assert err.sched_policy == "adversarial:starve-high"
        assert any(d["kind"] == "wildcard" for d in err.sched_decisions)
        assert "adversarial:starve-high" in str(err)

        path = policy.save_trace(str(tmp_path / "bug.json"))
        # The replay must reproduce the deadlock deterministically —
        # twice, to rule out hidden state.
        for _ in range(2):
            replay = ReplayPolicy(load_trace(path))
            with pytest.raises(DeadlockError) as replayed:
                Simulator(2, SP2, policy=replay).run(_buggy_wildcard_program())
            assert replayed.value.sched_policy == "replay:adversarial:starve-high"
            assert replay.decisions == policy.decisions

    def test_deadlock_error_embeds_trace_path_when_assigned(self):
        policy = AdversarialPolicy("starve-high")
        policy.trace_path = "/some/dir/trace-0001.json"
        with pytest.raises(DeadlockError) as excinfo:
            Simulator(2, SP2, policy=policy).run(_buggy_wildcard_program())
        assert excinfo.value.sched_trace == "/some/dir/trace-0001.json"
        assert "/some/dir/trace-0001.json" in str(excinfo.value)

    def test_replay_divergence_is_loud(self, tmp_path):
        policy = AdversarialPolicy("starve-high")
        with pytest.raises(DeadlockError):
            Simulator(2, SP2, policy=policy).run(_buggy_wildcard_program())
        path = policy.save_trace(str(tmp_path / "bug.json"))

        async def different(ctx):  # not the recorded program at all
            if ctx.rank == 0:
                await ctx.send(1, b"x", tag=1)
            else:
                await ctx.recv(0, tag=1)

        replay = ReplayPolicy(load_trace(path))
        with pytest.raises((ConfigurationError, DeadlockError)):
            Simulator(2, SP2, policy=replay).run(different)


# ---------------------------------------------------------------------------
# Engine plumbing: ties, fault freedom, budgets, guards
# ---------------------------------------------------------------------------
class TestEnginePlumbing:
    def test_tie_decisions_recorded_and_replayable(self):
        async def program(ctx):
            await ctx.compute(1e-3)
            return ctx.rank

        policy = RandomPolicy(5)
        result = Simulator(4, SP2, policy=policy).run(program)
        assert result.returns == [0, 1, 2, 3]
        assert any(d["kind"] == "tie" for d in policy.decisions)
        for rec in policy.decisions:
            assert rec["kind"] in ("tie", "wildcard", "fault")
            assert 0 <= rec["choice"] < rec["n"]

        replay = ReplayPolicy(policy.trace_dict())
        Simulator(4, SP2, policy=replay).run(program)
        assert replay.decisions == policy.decisions

    def test_event_budget_raises_livelock(self):
        async def program(ctx):
            for _ in range(100):
                await ctx.compute(1e-6)

        policy = RandomPolicy(0)
        policy.event_budget = 10
        with pytest.raises(LivelockError, match="event budget"):
            Simulator(2, SP2, policy=policy).run(program)

    def test_real_transports_reject_exploring_policies(self):
        async def program(ctx):
            return ctx.rank

        with pytest.raises(ConfigurationError, match="schedule exploration"):
            MPBackend().run(2, program, schedule_policy=RandomPolicy(0))

    def test_fault_freedom_is_policy_controlled(self):
        """The same probabilistic plan fires or not on the policy's say,
        and the decision is recorded with rule provenance."""
        plan = default_fault_plan(4)
        force = AdversarialPolicy("starve-low")   # forces faults on
        suppress = AdversarialPolicy("starve-high")  # forces faults off
        forced = _system(num_ranks=4).run(fault_plan=plan, schedule_policy=force)
        clean = _system(num_ranks=4).run(fault_plan=plan, schedule_policy=suppress)
        assert forced.degraded
        assert not clean.degraded
        fault_recs = [d for d in force.decisions if d["kind"] == "fault"]
        assert fault_recs and fault_recs[0]["choice"] == 1
        assert fault_recs[0]["fault"] == "crash"


# ---------------------------------------------------------------------------
# Run-timeline meta mirror
# ---------------------------------------------------------------------------
class TestTimelineMeta:
    def test_plain_run_has_outcome_and_no_schedule_keys(self):
        result = _system().run()
        assert result.timeline.meta["outcome"] == "clean"
        assert "schedule_policy" not in result.timeline.meta

    def test_policy_run_mirrors_schedule_meta(self):
        policy = RandomPolicy(8)
        policy.trace_path = "/tmp/somewhere/trace.json"
        result = _system().run(schedule_policy=policy)
        meta = result.timeline.meta
        assert meta["outcome"] == "clean"
        assert meta["schedule_policy"] == "random:8"
        assert meta["schedule_decisions"] == len(policy.decisions)
        assert meta["schedule_trace"] == "/tmp/somewhere/trace.json"

    def test_degraded_outcome_declared(self):
        policy = AdversarialPolicy("starve-low")
        result = _system(num_ranks=4).run(
            fault_plan=default_fault_plan(4), schedule_policy=policy
        )
        assert result.degraded
        assert result.timeline.meta["outcome"] == "degraded"
        assert result.timeline.meta["schedule_policy"] == "adversarial:starve-low"


# ---------------------------------------------------------------------------
# The Explorer harness
# ---------------------------------------------------------------------------
def _explorer(method="binary-swap:raw", num_ranks=4, fault_plan="default", **kwargs):
    plan = default_fault_plan(num_ranks) if fault_plan == "default" else fault_plan
    cfg = RunConfig(method=method, num_ranks=num_ranks, **SMALL)
    return Explorer(cfg, plan, **kwargs)


class TestExplorer:
    def test_random_sweep_classifies_every_interleaving(self, tmp_path):
        explorer = _explorer(trace_dir=str(tmp_path))
        report = explorer.run("random", 8, seed=0)
        assert len(report.results) == 8
        assert report.ok, report.counts()
        assert set(report.counts()) <= {"identical", "degraded", "resumed", "aborted"}
        # The coin-flip crash explores both branches across 6 walks.
        assert len(report.counts()) >= 2
        # Passing interleavings saved no traces.
        assert not os.path.exists(str(tmp_path)) or not os.listdir(str(tmp_path))

    def test_adversarial_rotation(self, tmp_path):
        explorer = _explorer(trace_dir=str(tmp_path))
        report = explorer.run("adversarial", len(ADVERSARIAL_MODES))
        assert len(report.results) == len(ADVERSARIAL_MODES)
        assert report.ok, report.counts()
        assert report.counts().get("degraded", 0) >= 1  # forced-fault modes

    def test_tile_routed_scenario(self, tmp_path):
        explorer = _explorer(method="tile-routed:rle", trace_dir=str(tmp_path))
        report = explorer.run("random", 4, seed=3)
        assert report.ok, [r.to_dict() for r in report.failures]

    def test_dfs_enumerates_multiple_interleavings(self):
        explorer = _explorer()
        report = explorer.run("dfs", 6)
        assert 1 < len(report.results) <= 6
        assert report.ok, report.counts()
        # The fault decision's sibling branch was explored.
        assert len(report.counts()) >= 2

    def test_replay_reproduces_bit_for_bit(self, tmp_path):
        explorer = _explorer(trace_dir=str(tmp_path), keep_all=True)
        first = explorer.classify(RandomPolicy(42), index=0)
        assert first.ok and first.trace_path
        replayed = explorer.replay(first.trace_path)
        assert replayed.classification == first.classification
        assert replayed.outcome == first.outcome
        assert replayed.decisions == first.decisions

    def test_trace_is_self_contained(self, tmp_path):
        explorer = _explorer(trace_dir=str(tmp_path), keep_all=True)
        first = explorer.classify(RandomPolicy(9), index=0)
        rebuilt = Explorer.from_trace(first.trace_path)
        assert rebuilt.config == explorer.config
        assert rebuilt.fault_plan == explorer.fault_plan
        replayed = rebuilt.replay(first.trace_path)
        assert replayed.classification == first.classification

    def test_livelock_classification_saves_trace(self, tmp_path):
        explorer = _explorer(trace_dir=str(tmp_path))
        explorer.baseline()  # memoize before shrinking the budget
        explorer.event_budget = 5
        outcome = explorer.classify(RandomPolicy(1), index=0)
        assert outcome.classification == "livelock"
        assert outcome.trace_path and os.path.exists(outcome.trace_path)
        trace = load_trace(outcome.trace_path)
        assert trace["meta"]["scenario"]["config"]["method"] == "binary-swap:raw"

    def test_report_document(self, tmp_path):
        explorer = _explorer()
        report = explorer.run("random", 2, seed=1)
        path = tmp_path / "report.json"
        report.save(str(path))
        doc = json.loads(path.read_text())
        assert doc["schema"] == EXPLORE_REPORT_SCHEMA
        assert doc["interleavings"] == 2
        assert doc["ok"] is True
        assert doc["scenario"]["fault_plan"]["schema"] == "repro.fault-plan/1"

    def test_scenario_meta_roundtrip(self):
        explorer = _explorer(method="tile-routed:rle")
        doc = json.loads(json.dumps(explorer.scenario))
        assert RunConfig(**doc["config"]) == explorer.config
        assert FaultPlan.from_dict(doc["fault_plan"]) == explorer.fault_plan
        # Only non-default fields travel; the machine by preset name.
        assert doc["config"] == {
            "method": "tile-routed:rle", "num_ranks": 4, "image_size": 16,
            "volume_shape": [16, 16, 8],
        }
        slow = RunConfig(machine="sp2-slow-net", **SMALL)
        assert Explorer(slow).scenario == {"config": {
            "image_size": 16, "volume_shape": (16, 16, 8), "machine": "sp2-slow-net",
        }}
        assert "fault_plan" not in _explorer(fault_plan=None).scenario

    def test_destructive_plans(self):
        """Only a crash/drop/corrupt rule may end a run in a declared
        abort or degrade; a clean or delay-only plan may not."""
        assert not _destructive(None)
        assert not _destructive(FaultPlan(rules=()))
        assert not _destructive(FaultPlan(rules=(FaultRule(kind="delay", rank=1, seconds=1e-4),)))
        assert _destructive(default_fault_plan(4))

    def test_crash_under_abort_recovery_is_declared_aborted(self):
        """A destructive plan's ``RankFailedError`` is the declared
        ``aborted`` outcome, not an unexpected error."""
        cfg = RunConfig(method="binary-swap:raw", num_ranks=4, recovery="abort", **SMALL)
        report = Explorer(cfg, default_fault_plan(4)).run("random", 6)
        assert [r.classification for r in report.results] == [
            "identical", "identical", "aborted", "identical", "identical", "aborted",
        ]
        assert report.ok

    def test_non_simulator_backend_is_refused(self):
        with pytest.raises(ConfigurationError, match="simulator"):
            Explorer(RunConfig(backend="mp", **SMALL))

    def test_unnamed_machine_is_refused(self):
        custom = SP2.with_overrides(tc=SP2.tc * 3.0)
        with pytest.raises(ConfigurationError, match="not a preset"):
            Explorer(RunConfig(machine=custom, **SMALL))

    @pytest.mark.parametrize(
        "spec, names",
        [
            ("random", ["random:0", "random:1", "random:2"]),
            ("random:7", ["random:7", "random:8", "random:9"]),
            ("adversarial", [f"adversarial:{m}" for m in ADVERSARIAL_MODES[:3]]),
            ("adversarial:lifo", ["adversarial:lifo"] * 3),
            ("deterministic", ["deterministic"] * 3),
            ("dfs", ["dfs:0", "dfs:1", "dfs:2"]),
        ],
    )
    def test_run_policy_names(self, spec, names):
        """The policy each interleaving of a sweep runs under."""
        report = _explorer().run(spec, 3)
        assert [r.policy for r in report.results] == names
        assert [r.index for r in report.results] == [0, 1, 2]

    def test_old_trace_without_config_is_refused(self, tmp_path):
        path = RandomPolicy(1).save_trace(
            str(tmp_path / "old.json"),
            meta={"scenario": {"method": "binary-swap:raw", "num_ranks": 4}},
        )
        with pytest.raises(ConfigurationError, match="carries no scenario metadata"):
            Explorer.from_trace(path)


# ---------------------------------------------------------------------------
# Tile-routed delivery-order insensitivity (satellite 1)
# ---------------------------------------------------------------------------
def _reverse(order):
    return list(reversed(order))


def _interleave(order):
    """Even-index tiles first, then odd — an 'interleaved by tile' shuffle."""
    return order[::2] + order[1::2]


class TestTileDeliveryOrder:
    @pytest.mark.parametrize("num_ranks", [4, 8])
    @pytest.mark.parametrize("permute", [_reverse, _interleave])
    def test_route_tiles_push_order_insensitive(self, num_ranks, permute):
        num_tiles = 2 * num_ranks

        def make_program(push_order):
            async def program(ctx):
                owners = [t % ctx.size for t in range(num_tiles)]
                outgoing = {
                    t: (f"r{ctx.rank}t{t}".encode(), 16)
                    for t in range(num_tiles)
                    if owners[t] != ctx.rank
                }
                received = await route_tiles(
                    ctx, owners, outgoing, push_order=push_order
                )
                return {t: payloads for t, payloads in sorted(received.items())}

            return program

        base = Simulator(num_ranks, SP2).run(make_program(None))
        shuffled = Simulator(num_ranks, SP2).run(make_program(permute))
        assert base.returns == shuffled.returns

    def test_push_order_must_be_a_permutation(self):
        async def program(ctx):
            owners = [0, 0]
            outgoing = {}
            if ctx.rank == 1:
                outgoing = {0: (b"a", 1), 1: (b"b", 1)}
            return await route_tiles(
                ctx, owners, outgoing, push_order=lambda order: order[:1]
            )

        with pytest.raises(ReproError, match="push_order must permute"):
            Simulator(2, SP2).run(program)

    @pytest.mark.parametrize("num_ranks", [4, 8])
    def test_tile_routed_pipeline_insensitive_to_schedule_shuffles(self, num_ranks):
        """The full tile-routed compositor under adversarial schedule
        policies: pixels and counters bit-identical to the default
        ascending delivery order."""
        base = _system("tile-routed:rle", num_ranks).run()
        for policy in (AdversarialPolicy("lifo"), AdversarialPolicy("starve-low"),
                       RandomPolicy(77)):
            run = _system("tile-routed:rle", num_ranks).run(schedule_policy=policy)
            assert np.array_equal(
                _pixels(base.final_image), _pixels(run.final_image)
            ), policy.name
            assert _counters(base.timeline) == _counters(run.timeline), policy.name


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------
class TestCLI:
    def test_explore_subcommand(self, tmp_path, capsys):
        from repro.experiments.cli import main

        out = str(tmp_path / "out")
        rc = main([
            "--out", out, "explore",
            "--method", "binary-swap:raw", "--ranks", "4",
            "--image-size", "16", "--interleavings", "2",
            "--policy", "random:30", "--fault-plan", "default",
            "--keep-all-traces",
        ])
        assert rc == 0
        report = json.loads((tmp_path / "out" / "explore.json").read_text())
        assert report["schema"] == EXPLORE_REPORT_SCHEMA
        assert report["ok"] is True
        traces = os.listdir(str(tmp_path / "out" / "sched-traces"))
        assert len(traces) == 2

    def test_explore_replay_flag(self, tmp_path, capsys):
        from repro.experiments.cli import main

        out = str(tmp_path / "out")
        assert main([
            "--out", out, "explore",
            "--method", "binary-swap:raw", "--ranks", "4",
            "--image-size", "16", "--interleavings", "1",
            "--policy", "random:30", "--fault-plan", "default",
            "--keep-all-traces",
        ]) == 0
        trace_dir = tmp_path / "out" / "sched-traces"
        trace = str(trace_dir / sorted(os.listdir(str(trace_dir)))[0])
        assert main(["--out", out, "explore", "--replay-trace", trace]) == 0
        text = (tmp_path / "out" / "explore_replay.txt").read_text()
        assert "replay:random:30" in text

    def test_explore_rejects_bad_policy(self, tmp_path):
        from repro.experiments.cli import main

        with pytest.raises(SystemExit):
            main([
                "--out", str(tmp_path), "explore",
                "--ranks", "4", "--policy", "bogus",
            ])
