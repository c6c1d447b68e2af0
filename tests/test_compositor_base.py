"""Tests for the Compositor framework pieces (base.py, registry)."""

import numpy as np
import pytest

from repro.compositing.base import (
    Compositor,
    OwnedPiece,
    composite_rect_pixels,
    split_axis_for,
)
from repro.compositing.schedule import IndexPart, RectPart
from repro.compositing.registry import available_methods, make_compositor, register
from repro.errors import CompositingError, ConfigurationError
from repro.render.image import SubImage
from repro.types import Rect


class TestCompositeOutcome:
    def test_rect_owned_values(self):
        image = SubImage.blank(4, 4)
        image.intensity[1, 1] = 0.5
        image.opacity[1, 1] = 0.25
        piece = OwnedPiece.cut(RectPart(Rect(1, 1, 2, 3)), image)
        assert piece.intensity.tolist() == [[0.5, 0.0]]
        assert piece.opacity.tolist() == [[0.25, 0.0]]
        assert piece.part.num_pixels == 2

    def test_index_owned_values(self):
        image = SubImage.blank(2, 2)
        image.intensity[1, 1] = 0.7
        piece = OwnedPiece.cut(IndexPart(4, 1, stride=3), image)  # flat 0, 3
        assert piece.intensity.tolist() == [0.0, 0.7]
        assert piece.part.num_pixels == 2

    def test_owned_values_are_copies(self):
        image = SubImage.blank(2, 2)
        piece = OwnedPiece.cut(RectPart(Rect(0, 0, 2, 2)), image)
        piece.intensity[0, 0] = 99.0
        assert image.intensity[0, 0] == 0.0


class TestSplitAxisFor:
    def test_longest(self):
        assert split_axis_for(Rect(0, 0, 10, 4), 0, "longest") == 0
        assert split_axis_for(Rect(0, 0, 4, 10), 0, "longest") == 1
        assert split_axis_for(Rect(0, 0, 4, 4), 0, "longest") == 0  # tie → rows

    def test_alternate(self):
        assert split_axis_for(Rect(0, 0, 4, 4), 0, "alternate") == 0
        assert split_axis_for(Rect(0, 0, 4, 4), 1, "alternate") == 1
        assert split_axis_for(Rect(0, 0, 4, 4), 2, "alternate") == 0

    def test_rows(self):
        for stage in range(4):
            assert split_axis_for(Rect(0, 0, 4, 9), stage, "rows") == 0

    def test_unknown_policy(self):
        with pytest.raises(CompositingError):
            split_axis_for(Rect(0, 0, 4, 4), 0, "diagonal")


class TestCompositeRectPixels:
    def test_empty_rect_noop(self):
        image = SubImage.blank(4, 4)
        composite_rect_pixels(
            image, Rect.empty(), np.zeros((0, 0)), np.zeros((0, 0)),
            local_in_front=True,
        )
        assert image.nonblank_count() == 0

    def test_local_in_front_semantics(self):
        image = SubImage.blank(1, 1)
        image.intensity[0, 0] = 0.8
        image.opacity[0, 0] = 1.0  # opaque local pixel
        recv_i = np.array([[0.5]])
        recv_a = np.array([[0.5]])
        front = image.copy()
        composite_rect_pixels(front, Rect(0, 0, 1, 1), recv_i, recv_a,
                              local_in_front=True)
        assert front.intensity[0, 0] == pytest.approx(0.8)  # local hides recv
        behind = image.copy()
        composite_rect_pixels(behind, Rect(0, 0, 1, 1), recv_i, recv_a,
                              local_in_front=False)
        assert behind.intensity[0, 0] == pytest.approx(0.5 + 0.5 * 0.8)


class TestRegistry:
    def test_known_methods_present(self):
        methods = available_methods()
        for name in ("bs", "bsbr", "bslc", "bsbrc", "bslcv", "direct",
                     "direct-async", "tree", "pipeline"):
            assert name in methods

    def test_unknown_method(self):
        with pytest.raises(ConfigurationError):
            make_compositor("nope")

    def test_case_insensitive(self):
        assert make_compositor("BSBRC").name == "bsbrc"

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError):
            register("bs", lambda: None)

    def test_custom_registration(self):
        class Custom(Compositor):
            name = "custom-test-method"

            async def run(self, ctx, image, plan, view_dir):
                return (OwnedPiece.cut(RectPart(image.full_rect()), image),)

        register("custom-test-method", Custom)
        assert make_compositor("custom-test-method").name == "custom-test-method"

    def test_options_forwarded(self):
        # Paper aliases route through the engine; schedule options land
        # on the schedule plane.
        compositor = make_compositor("bslc", section=11)
        assert compositor.schedule.section == 11
        compositor = make_compositor("bsbrc", split_policy="alternate")
        assert compositor.schedule.split_policy == "alternate"

    def test_check_plan_mismatch(self):
        from repro.cluster.model import IDEALIZED
        from repro.cluster.simulator import Simulator
        from repro.errors import RankFailedError
        from repro.volume.partition import recursive_bisect

        plan = recursive_bisect((16, 16, 16), 4)

        async def program(ctx):
            compositor = make_compositor("bs")
            await compositor.run(
                ctx, SubImage.blank(8, 8), plan, np.array([0, 0, -1.0])
            )

        with pytest.raises(RankFailedError) as excinfo:
            Simulator(2, IDEALIZED).run(program)
        assert isinstance(excinfo.value.original, CompositingError)
