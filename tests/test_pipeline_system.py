"""Tests for RunConfig and the end-to-end SortLastSystem."""

import numpy as np
import pytest

from repro.cluster.backend import SimBackend
from repro.cluster.faults import FaultPlan, FaultRule
from repro.cluster.model import IDEALIZED, SP2
from repro.cluster.progress import ProgressFeed
from repro.cluster.schedule_policy import SchedulePolicy
from repro.errors import ConfigurationError, RankFailedError
from repro.pipeline.config import RunConfig
from repro.pipeline.system import SortLastSystem, assemble_final

SMALL = dict(volume_shape=(32, 32, 16), image_size=48, num_ranks=4)


class TestRunConfig:
    def test_defaults_valid(self):
        cfg = RunConfig()
        assert cfg.method == "bsbrc"
        assert cfg.machine is SP2

    def test_unknown_dataset(self):
        with pytest.raises(ConfigurationError):
            RunConfig(dataset="nope")

    def test_non_power_of_two_ranks_allowed(self):
        # Folding extension: any count >= 1 is valid configuration.
        assert RunConfig(num_ranks=6).num_ranks == 6

    def test_zero_ranks_rejected(self):
        with pytest.raises(ConfigurationError):
            RunConfig(num_ranks=0)

    def test_unknown_method(self):
        with pytest.raises(ConfigurationError):
            RunConfig(method="magic")

    def test_machine_preset_by_name(self):
        cfg = RunConfig(machine="idealized")
        assert cfg.machine is IDEALIZED

    def test_unknown_machine_preset(self):
        with pytest.raises(ConfigurationError):
            RunConfig(machine="cray")

    def test_bad_image_size(self):
        with pytest.raises(ConfigurationError):
            RunConfig(image_size=1)

    def test_bad_step(self):
        with pytest.raises(ConfigurationError):
            RunConfig(step=0)

    def test_volume_shape_list_renders_like_the_tuple(self):
        """A JSON-borne list is stored as a tuple, so the scene memo and
        the render cache can key on it."""
        kw = dict(dataset="sphere", image_size=32, num_ranks=4)
        as_list = RunConfig(volume_shape=[32, 32, 16], **kw)
        assert as_list.volume_shape == (32, 32, 16)
        a = SortLastSystem(as_list).run().final_image
        b = SortLastSystem(RunConfig(volume_shape=(32, 32, 16), **kw)).run().final_image
        assert np.array_equal(a.intensity, b.intensity)
        assert np.array_equal(a.opacity, b.opacity)

    @pytest.mark.parametrize(
        "shape", [[0, 4, 4], (4, 4), (4, 4, 4, 4), (4.0, 4, 4), (4, -1, 4), "444", 16]
    )
    def test_bad_volume_shape(self, shape):
        with pytest.raises(ConfigurationError, match="volume_shape"):
            RunConfig(volume_shape=shape)

    def test_with_derives(self):
        cfg = RunConfig(num_ranks=4)
        other = cfg.with_(num_ranks=8, method="bs")
        assert other.num_ranks == 8 and other.method == "bs"
        assert cfg.num_ranks == 4

    def test_label_mentions_everything(self):
        label = RunConfig(dataset="cube", num_ranks=16, method="bslc").label()
        assert "cube" in label and "P16" in label and "bslc" in label

    def test_num_pixels(self):
        assert RunConfig(image_size=100).num_pixels == 10000


class TestSortLastSystem:
    @pytest.mark.parametrize("method", ["bs", "bsbr", "bslc", "bsbrc"])
    def test_end_to_end_matches_reference(self, method):
        cfg = RunConfig(dataset="engine_low", method=method, **SMALL)
        result = SortLastSystem(cfg).run()
        assert result.final_image.max_abs_diff(result.reference_image()) < 1e-9

    @staticmethod
    def _gathered_equals_local(method, backend="sim"):
        cfg = RunConfig(dataset="head", method=method, **SMALL)
        result = SortLastSystem(cfg).run(backend=backend)
        side = cfg.image_size
        local = assemble_final(result.compositing.outcomes, side, side)
        assert result.final_image.max_abs_diff(local) == 0.0

    def test_gather_path_equals_local_assembly(self):
        self._gathered_equals_local("bsbrc")

    def test_gather_path_for_index_ownership(self):
        self._gathered_equals_local("bslc")

    def test_gather_path_on_real_processes(self):
        self._gathered_equals_local("bsbrc", backend="mp")

    def test_result_carries_stats(self):
        cfg = RunConfig(dataset="engine_low", method="bsbrc", **SMALL)
        result = SortLastSystem(cfg).run()
        stats = result.compositing.stats
        assert stats.t_total > 0
        assert stats.mmax_bytes > 0
        assert result.compositing.method == "bsbrc"
        assert len(result.subimages) == cfg.num_ranks

    def test_method_options_forwarded(self):
        cfg = RunConfig(
            dataset="engine_low", method="bslc", method_options={"section": 16}, **SMALL
        )
        result = SortLastSystem(cfg).run()
        assert result.final_image.max_abs_diff(result.reference_image()) < 1e-9

    def test_viewpoint_changes_result(self):
        base = RunConfig(dataset="engine_low", method="bsbrc", **SMALL)
        img_a = SortLastSystem(base).run().final_image
        img_b = SortLastSystem(base.with_(rot_y=80.0)).run().final_image
        assert img_a.max_abs_diff(img_b) > 1e-6

    def test_machine_model_affects_time_not_pixels(self):
        base = RunConfig(dataset="engine_low", method="bsbrc", **SMALL)
        slow = base.with_(machine="sp2-slow-net")
        res_a = SortLastSystem(base).run()
        res_b = SortLastSystem(slow).run()
        assert res_a.final_image.max_abs_diff(res_b.final_image) == 0.0
        assert res_b.compositing.stats.t_comm > res_a.compositing.stats.t_comm

    def test_single_rank_degenerates_gracefully(self):
        cfg = RunConfig(
            dataset="sphere", method="bs", volume_shape=(16, 16, 16),
            image_size=32, num_ranks=1,
        )
        result = SortLastSystem(cfg).run()
        assert result.final_image.max_abs_diff(result.reference_image()) < 1e-12
        assert result.compositing.stats.t_comm == 0.0


class _RecordingBackend(SimBackend):
    """The simulator, remembering what every ``run`` call was handed."""

    def __init__(self):
        self.calls = []

    def run(self, num_ranks, program, args=(), **options):
        self.calls.append((program, tuple(args), options))
        return super().run(num_ranks, program, args, **options)


class _CountingFeed(ProgressFeed):
    resets = 0

    def reset_attempt(self):
        self.resets += 1
        super().reset_attempt()


class TestOneRunPath:
    """Every engine run of one ``SortLastSystem.run`` call is the same
    program on the same substrate options; a re-run differs only in the
    plan, the recovery runtime, and the disarmed fault plan."""

    CRASH = FaultPlan(rules=(FaultRule(kind="crash", rank=1, stage=1),), seed=5)

    def _run(self, recovery):
        backend, feed = _RecordingBackend(), _CountingFeed()
        cfg = RunConfig(
            dataset="engine_low", method="bsbrc", comm_timeout=7.0,
            topology="fat-tree:radix=4", **SMALL,
        )
        try:
            result = SortLastSystem(cfg).run(
                backend=backend, trace=True, fault_plan=self.CRASH, recovery=recovery,
                schedule_policy=SchedulePolicy(), progress=feed,
            )
        except RankFailedError:
            result = None
        return backend.calls, feed, result

    @pytest.mark.parametrize("recovery", ["checkpoint-resume", "degrade"])
    def test_rerun_keeps_program_and_substrate_options(self, recovery):
        calls, feed, result = self._run(recovery)
        assert len(calls) == 2 and feed.resets == 1
        (prog_a, args_a, opts_a), (prog_b, args_b, opts_b) = calls
        assert prog_a is prog_b and len(args_a) == len(args_b)
        assert opts_a.keys() == opts_b.keys()
        for name in ("model", "timeout", "network", "trace", "schedule_policy"):
            assert opts_a[name] is opts_b[name] or opts_a[name] == opts_b[name], name
        assert (opts_a["timeout"], opts_a["trace"]) == (7.0, True)
        assert opts_a["network"] is not None and opts_a["schedule_policy"] is not None
        # Only the first attempt is armed; the feed rides along on both.
        assert self.CRASH in args_a and self.CRASH not in args_b
        assert feed in args_a and feed in args_b
        assert result.recovered == (recovery == "checkpoint-resume")
        assert result.degraded == (recovery == "degrade")

    def test_abort_reraises_without_a_rerun(self):
        calls, feed, result = self._run("abort")
        assert result is None and len(calls) == 1 and feed.resets == 0 and feed.closed
