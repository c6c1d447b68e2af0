"""Unit tests for the schedule × codec decomposition.

Covers the two planes in isolation — schedule structure (partners,
parts, depth order, radix adaptation) and codec wire roundtrips — plus
the registry surface (combo resolution, did-you-mean, catalog) and the
:class:`~repro.compositing.base.CompositeOutcome` ownership shape.  End-to-end
pixel equivalence of every combo lives in ``test_grid_equivalence.py``.
"""

import numpy as np
import pytest

from conftest import rendered_workload
from repro.compositing.base import OwnedPiece
from repro.compositing.codec import (
    BoundingRectCodec,
    RawCodec,
    RectRLECodec,
    RunLengthCodec,
    ValueRunCodec,
)
from repro.compositing.engine import ScheduledCompositor
from repro.compositing.registry import (
    CODECS,
    COMBO_ALIASES,
    PAPER_METHODS,
    SCHEDULES,
    available_methods,
    make_compositor,
    make_scheduled,
    method_catalog,
)
from repro.compositing.schedule import (
    BinarySwapSchedule,
    DirectSendSchedule,
    IndexPart,
    RadixKSchedule,
    RectPart,
    SectionedSchedule,
    parse_radix,
)
from repro.compositing.wire import (
    pack_pixels,
    pack_rle,
    unpack_pixels,
    unpack_rle,
)
from repro.errors import CompositingError, ConfigurationError, PartitionError
from repro.pipeline.assemble import gather_payload
from repro.pipeline.system import validate_ownership
from repro.render.image import SubImage
from repro.types import Rect
from repro.volume.folded import refold_survivors
from repro.volume.partition import recursive_bisect

VIEW = np.array([0.37, -0.61, 0.70])


def _plan(num_ranks):
    return recursive_bisect((32, 32, 16), num_ranks)


# ---------------------------------------------------------------------------
# CompositeOutcome invariants
# ---------------------------------------------------------------------------
class TestCompositeOutcome:
    def test_neither_ownership_rejected(self):
        """An outcome set that owns nothing leaves every pixel unowned."""
        piece = OwnedPiece.cut(RectPart(Rect(0, 0, 2, 4)), SubImage.blank(4, 4))
        with pytest.raises(CompositingError, match="8 unowned, 0 multiply"):
            validate_ownership([(piece,), ()], 4, 4)
        validate_ownership(
            [(piece,), (OwnedPiece.cut(RectPart(Rect(2, 0, 4, 4)), SubImage.blank(4, 4)),)],
            4, 4,
        )

    def test_empty_index_ownership_counts_zero(self):
        part = IndexPart(16, 4, stride=8, offset=5)  # no section 5 in a 4-section frame
        piece = OwnedPiece.cut(part, SubImage.blank(4, 4))
        assert part.num_pixels == 0
        assert piece.intensity.size == 0 and piece.opacity.size == 0

    def test_zero_dim_index_array_counts_zero(self):
        """A rank owning no tile gathers a zero-length index array."""
        _, flat, raw_i, _ = gather_payload((), 4)
        assert flat.shape == (0,) and raw_i == b""


# ---------------------------------------------------------------------------
# Registry surface
# ---------------------------------------------------------------------------
class TestRegistry:
    def test_paper_aliases_map_to_engine(self):
        for alias, (schedule_name, codec_name) in COMBO_ALIASES.items():
            compositor = make_compositor(alias)
            assert isinstance(compositor, ScheduledCompositor)
            assert compositor.name == alias
            assert compositor.schedule.name == schedule_name
            assert compositor.codec.name == codec_name

    def test_combo_spec_builds_compositor(self):
        compositor = make_compositor("radix-k:rect-rle", radix=(4, 4))
        assert compositor.name == "radix-k:rect-rle"
        assert compositor.schedule.radix == (4, 4)

    def test_make_scheduled_direct(self):
        compositor = make_scheduled("radix-k", "rect", radix=(8,))
        assert compositor.name == "radix-k:rect"
        assert compositor.schedule.effective_radix(8) == (8,)

    def test_unknown_schedule_suggests(self):
        with pytest.raises(ConfigurationError, match="did you mean 'radix-k'"):
            make_compositor("radixk:raw")

    def test_unknown_codec_suggests(self):
        with pytest.raises(ConfigurationError, match="did you mean 'rect-rle'"):
            make_compositor("binary-swap:rectrle")

    def test_unknown_method_suggests(self):
        with pytest.raises(ConfigurationError, match="did you mean 'bsbr"):
            make_compositor("bsbrk")

    def test_incompatible_combo_lists_alternatives(self):
        with pytest.raises(ConfigurationError) as err:
            make_compositor("sectioned:rect")
        assert "compatible codecs" in str(err.value)
        assert "'rle'" in str(err.value)

    def test_unknown_option_rejected_with_accepted_list(self):
        with pytest.raises(ConfigurationError) as err:
            make_compositor("binary-swap:raw", sectoin=7)
        assert "sectoin" in str(err.value)
        assert "split_policy" in str(err.value)

    def test_make_compositor_resolves_and_rejects(self):
        make_compositor("radix-k:rect-rle")
        make_compositor("BSBRC")
        with pytest.raises(ConfigurationError):
            make_compositor("sectioned:rect")
        with pytest.raises(ConfigurationError):
            make_compositor("nope")

    @pytest.mark.parametrize(
        "method,options",
        [
            ("bsbrc", {"split_policy": "diagonal"}),
            ("radix-k:rect", {"split_policy": "diagonal"}),
            ("bslc", {"section": 0}),
        ],
    )
    def test_bad_option_values_fail_when_the_config_is_built(self, method, options):
        """A bad option value is a configuration error, raised by
        ``RunConfig`` itself rather than by a rank program mid-run."""
        from repro.pipeline.config import RunConfig

        with pytest.raises(ConfigurationError):
            RunConfig(method=method, method_options=options)

    def test_cli_reports_a_bad_section_in_one_line(self, tmp_path):
        from repro.experiments.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["--quick", "--out", str(tmp_path), "run", "--method", "bslc",
                  "--section", "0"])
        # A string exit code is printed as-is, without a traceback.
        assert exc.value.code == "section must be >= 1, got 0"

    def test_catalog_covers_every_method(self):
        catalog = method_catalog()
        assert set(catalog) == set(available_methods())
        for alias in PAPER_METHODS:
            assert catalog[alias].startswith("paper method")
        assert catalog["bslcv"].startswith("comparator (= sectioned:value-rle)")
        assert all(catalog[f"radix-k:{c}"] for c in ("raw", "rect", "rect-rle", "rle"))

    def test_every_advertised_combo_is_compatible(self):
        from repro.compositing.registry import TILE_ROUTED

        for name in available_methods():
            if ":" not in name:
                continue
            schedule_name, _, codec_name = name.partition(":")
            if schedule_name == TILE_ROUTED:
                # The tile plane carries rect-shaped tiles on any codec.
                assert "rect" in CODECS[codec_name].supports
                continue
            kind = SCHEDULES[schedule_name].part_kind
            assert kind in CODECS[codec_name].supports


# ---------------------------------------------------------------------------
# Schedule structure
# ---------------------------------------------------------------------------
class TestBinarySwapSchedule:
    def test_program_shape(self):
        plan = _plan(8)
        program = BinarySwapSchedule().build(3, 8, Rect(0, 0, 48, 48), 48 * 48, plan, VIEW)
        assert len(program.stages) == 3
        for stage_idx, stage in enumerate(program.stages):
            assert isinstance(stage.keep_part, RectPart)
            assert len(stage.steps) == 1
            assert stage.steps[0].peer == 3 ^ (1 << stage_idx)
            assert stage.composite_order in (((0, True),), ((0, False),))
        # Kept + sent halves tile the pre-stage region.
        first = program.stages[0]
        keep, sent = first.keep_part.rect, first.steps[0].send_part.rect
        assert keep.area + sent.area == 48 * 48
        assert program.final_part.rect.area == 48 * 48 // 8

    def test_too_small_image_raises_with_stage(self):
        plan = _plan(8)
        with pytest.raises(CompositingError, match="stage 2"):
            BinarySwapSchedule().build(0, 8, Rect(0, 0, 2, 2), 4, plan, VIEW)


class TestRadixKSchedule:
    def test_default_degenerates_to_all_twos(self):
        assert RadixKSchedule().effective_radix(16) == (2, 2, 2, 2)

    @pytest.mark.parametrize(
        "size,expected",
        [(16, (4, 4)), (8, (4, 2)), (4, (4,)), (2, (2,))],
    )
    def test_radix_adapts_to_group_size(self, size, expected):
        assert RadixKSchedule(radix=(4, 4)).effective_radix(size) == expected

    def test_last_factor_repeats(self):
        assert RadixKSchedule(radix=(4,)).effective_radix(64) == (4, 4, 4)

    def test_invalid_factors_rejected(self):
        with pytest.raises(ConfigurationError, match="powers of two"):
            RadixKSchedule(radix=(3,))
        with pytest.raises(ConfigurationError, match="powers of two"):
            RadixKSchedule(radix=(4, 1))
        with pytest.raises(ConfigurationError, match="not be empty"):
            RadixKSchedule(radix=())

    def test_non_power_of_two_size_rejected(self):
        with pytest.raises(ConfigurationError, match="power of two"):
            RadixKSchedule().effective_radix(6)

    def test_radix4_group_structure(self):
        plan = _plan(4)
        program = RadixKSchedule(radix=(4,)).build(
            1, 4, Rect(0, 0, 40, 40), 1600, plan, VIEW
        )
        assert len(program.stages) == 1
        stage = program.stages[0]
        # Three XOR rounds: peers 1^1, 1^2, 1^3.
        assert [step.peer for step in stage.steps] == [0, 3, 2]
        # Each member gets a quarter; parts tile the frame.
        areas = [step.send_part.rect.area for step in stage.steps]
        assert stage.keep_part.rect.area + sum(areas) == 1600
        # Every peer's contribution folds exactly once.
        assert sorted(slot for slot, _ in stage.composite_order) == [0, 1, 2]

    def test_final_ownership_independent_of_radix(self):
        plan = _plan(8)
        frame = Rect(0, 0, 48, 48)
        for rank in range(8):
            rects = {
                RadixKSchedule(radix=radix)
                .build(rank, 8, frame, 48 * 48, plan, VIEW)
                .final_part.rect
                for radix in [(2, 2, 2), (4, 2), (2, 4), (8,)]
            }
            assert len(rects) == 1

    def test_refold_pairs_are_bisection_buddies(self):
        assert RadixKSchedule(radix=(4, 4)).refold_pairs(8) == [
            (0, 1), (2, 3), (4, 5), (6, 7),
        ]


class TestDirectSendSchedule:
    def test_single_stage_all_pairs(self):
        plan = _plan(8)
        program = DirectSendSchedule().build(2, 8, Rect(0, 0, 48, 48), 48 * 48, plan, VIEW)
        assert len(program.stages) == 1
        stage = program.stages[0]
        assert len(stage.steps) == 7
        assert sorted(step.peer for step in stage.steps) == [0, 1, 3, 4, 5, 6, 7]


class TestSectionedSchedule:
    def test_invalid_section_rejected(self):
        with pytest.raises(ConfigurationError, match="section must be >= 1"):
            SectionedSchedule(section=0)

    def test_index_parts_partition_sequence(self):
        plan = _plan(4)
        program = SectionedSchedule(section=16).build(
            0, 4, Rect(0, 0, 40, 40), 1600, plan, VIEW
        )
        assert len(program.stages) == 2
        stage = program.stages[0]
        assert isinstance(stage.keep_part, IndexPart)
        merged = np.sort(
            np.concatenate([stage.keep_part.flat(), stage.steps[0].send_part.flat()])
        )
        assert np.array_equal(merged, np.arange(1600))
        assert program.final_part.flat().shape[0] == 1600 // 4


# ---------------------------------------------------------------------------
# parse_radix
# ---------------------------------------------------------------------------
class TestParseRadix:
    def test_parses_lists(self):
        assert parse_radix("4,4") == (4, 4)
        assert parse_radix(" 2, 8 ") == (2, 8)
        assert parse_radix("16") == (16,)

    def test_rejects_garbage(self):
        with pytest.raises(ConfigurationError, match="comma-separated integers"):
            parse_radix("4,x")
        with pytest.raises(ConfigurationError, match="no factors"):
            parse_radix(",")


# ---------------------------------------------------------------------------
# Engine glue
# ---------------------------------------------------------------------------
class TestScheduledCompositor:
    def test_incompatible_pair_rejected_at_construction(self):
        with pytest.raises(ConfigurationError, match="cannot carry"):
            ScheduledCompositor(SectionedSchedule(), BoundingRectCodec())

    def test_default_name_is_combo_spec(self):
        compositor = ScheduledCompositor(BinarySwapSchedule(), RawCodec())
        assert compositor.name == "binary-swap:raw"

    def test_outcome_is_the_final_part(self):
        from repro.cluster.model import IDEALIZED
        from repro.pipeline.system import run_compositing

        subimages, plan, camera = rendered_workload("engine_low", 4)
        run = run_compositing(
            list(subimages), "radix-k:raw", plan, camera.view_dir, IDEALIZED, radix=(4,),
        )
        schedule = make_compositor("radix-k:raw", radix=(4,)).schedule
        for rank, outcome in enumerate(run.outcomes):
            (piece,) = outcome
            final = schedule.program(
                rank, 4, subimages[0].full_rect(), subimages[0].num_pixels,
                plan, camera.view_dir,
            ).final_part
            assert piece.part.rect == final.rect
            assert piece.intensity.shape == (final.rect.height, final.rect.width)


# ---------------------------------------------------------------------------
# Refold pairing contract
# ---------------------------------------------------------------------------
class TestRefoldPairs:
    def test_matching_pairs_accepted(self):
        plan = _plan(4)
        folded, rank_map = refold_survivors(plan, [2], pairs=[(0, 1), (2, 3)])
        assert folded.num_ranks == 3
        assert rank_map[1] == 3  # survivor covers the merged block

    def test_mismatched_pairs_fail_loudly(self):
        plan = _plan(4)
        with pytest.raises(PartitionError, match="fold pairing"):
            refold_survivors(plan, [2], pairs=[(0, 2), (1, 3)])


# ---------------------------------------------------------------------------
# Wire kernels on the selections the codecs hand them
# ---------------------------------------------------------------------------
class TestWireKernels:
    def test_raw_seq_roundtrip(self, rng):
        intensity = rng.uniform(0, 1, 100)
        opacity = rng.uniform(0, 1, 100)
        indices = np.arange(0, 100, 3)
        msg = pack_pixels(intensity[indices], opacity[indices])
        assert msg.accounted_bytes == indices.shape[0] * 16
        out_i, out_a = unpack_pixels(msg.buffer, indices.shape[0])
        np.testing.assert_array_equal(out_i, intensity[indices])
        np.testing.assert_array_equal(out_a, opacity[indices])

    def test_rle_rect_roundtrip(self, rng):
        height = width = 12
        mask = rng.random((height, width)) < 0.4
        opacity = np.where(mask, rng.uniform(0.1, 0.9, (height, width)), 0.0)
        intensity = np.where(mask, opacity * 0.5, 0.0)
        rect = Rect(2, 3, 10, 11)
        rows, cols = rect.slices()
        msg = pack_rle(intensity[rows, cols], opacity[rows, cols])
        mask, out_i, out_a = unpack_rle(msg.buffer, rect.area)
        flat_i = intensity[rows, cols].ravel()
        flat_a = opacity[rows, cols].ravel()
        expected = np.flatnonzero((flat_a != 0.0) | (flat_i != 0.0))
        np.testing.assert_array_equal(np.flatnonzero(mask), expected)
        np.testing.assert_array_equal(out_i, flat_i[expected])
        np.testing.assert_array_equal(out_a, flat_a[expected])

    def test_codec_scan_and_supports(self):
        assert RawCodec.supports == frozenset({"rect", "index"})
        assert RunLengthCodec.supports == frozenset({"rect", "index"})
        assert BoundingRectCodec.supports == frozenset({"rect"})
        assert RectRLECodec.supports == frozenset({"rect"})
        assert ValueRunCodec.supports == frozenset({"index"})
        assert BoundingRectCodec.needs_bound_scan
        assert not RawCodec.needs_bound_scan
