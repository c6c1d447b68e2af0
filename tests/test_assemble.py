"""The single shared final-image assembly routine (rect/index/mixed)."""

import numpy as np

from repro.compositing.base import OwnedPiece
from repro.compositing.schedule import IndexPart, RectPart
from repro.compositing.tiles import TilePart
from repro.pipeline.assemble import (
    assemble_final,
    gather_payload,
    payload_piece,
    scatter_tile,
)
from repro.render.image import SubImage
from repro.types import Rect


def _image_with(values: float, height: int = 6, width: int = 8) -> SubImage:
    img = SubImage.blank(height, width)
    img.intensity[:] = values
    img.opacity[:] = values / 2.0
    return img


def _piece(part, value_i, value_a) -> OwnedPiece:
    return OwnedPiece(
        part, np.full(part.num_pixels, value_i), np.full(part.num_pixels, value_a)
    )


class TestAssembleTiles:
    def test_rect_tiles_scatter_their_block(self):
        top = _piece(RectPart(Rect(0, 0, 3, 8)), 0.5, 0.25)
        bottom = _piece(RectPart(Rect(3, 0, 6, 8)), 0.9, 0.45)
        final = assemble_final([(top,), (bottom,)], 6, 8)
        assert np.all(final.intensity[:3] == 0.5)
        assert np.all(final.intensity[3:] == 0.9)
        assert np.all(final.opacity[:3] == 0.25)

    def test_index_tiles_scatter_their_positions(self):
        even, odd = IndexPart(48, 1).split(keep_first=True)
        final = assemble_final(
            [(_piece(even, 0.2, 0.1),), (_piece(odd, 0.8, 0.4),)], 6, 8
        )
        flat = final.intensity.ravel()
        assert np.all(flat[0::2] == 0.2) and np.all(flat[1::2] == 0.8)

    def test_mixed_rect_and_index_tiles(self):
        rect = RectPart(Rect(0, 0, 3, 8))
        bottom = IndexPart(48, 24, stride=2, offset=1)  # flat 24..47
        final = assemble_final(
            [(_piece(rect, 0.7, 0.35),), (_piece(bottom, 0.3, 0.15),)], 6, 8
        )
        assert np.all(final.intensity[:3] == 0.7)
        assert np.all(final.intensity[3:] == 0.3)

    def test_empty_rect_contributes_nothing(self):
        empty = _piece(RectPart(Rect(2, 2, 2, 2)), 1.0, 1.0)
        final = assemble_final([(empty,)], 6, 8)
        assert np.all(final.intensity == 0.0)

    def test_rect_values_are_row_major(self):
        values = np.arange(6, dtype=np.float64)
        piece = OwnedPiece(RectPart(Rect(1, 1, 3, 4)), values, values * 2)
        final = assemble_final([(piece,)], 6, 8)
        assert np.array_equal(final.intensity[1:3, 1:4], values.reshape(2, 3))


class TestTileFromOutcome:
    """The gather's wire tile, built from an outcome's pieces at send
    time and scattered back at the root."""

    @staticmethod
    def _roundtrip(outcome, height=6, width=8):
        final = SubImage.blank(height, width)
        scatter_tile(final, *payload_piece(gather_payload(outcome, width)))
        return final

    def test_rect_outcome_roundtrip(self):
        img = _image_with(0.6)
        outcome = (OwnedPiece.cut(RectPart(Rect(2, 3, 5, 7)), img),)
        rect, flat, raw_i, _ = gather_payload(outcome, 8)
        assert rect == Rect(2, 3, 5, 7) and flat is None and len(raw_i) == 12 * 8
        final = self._roundtrip(outcome)
        assert np.all(final.intensity[2:5, 3:7] == 0.6)
        assert final.intensity.sum() == 0.6 * 12

    def test_index_outcome_roundtrip(self):
        img = _image_with(0.4)
        part = IndexPart(48, 5, stride=4, offset=1)
        outcome = (OwnedPiece.cut(part, img),)
        rect, flat, _, _ = gather_payload(outcome, 8)
        assert rect is None and np.array_equal(flat, part.flat())
        final = self._roundtrip(outcome)
        assert np.all(final.opacity.ravel()[part.flat()] == 0.2)
        assert np.count_nonzero(final.opacity) == part.num_pixels

    def test_assemble_outcomes_equals_manual_scatter(self):
        imgs = [_image_with(0.3), _image_with(0.9)]
        outcomes = [
            (OwnedPiece.cut(RectPart(Rect(0, 0, 6, 4)), imgs[0]),),
            (OwnedPiece.cut(RectPart(Rect(0, 4, 6, 8)), imgs[1]),),
        ]
        final = assemble_final(outcomes, 6, 8)
        assert np.all(final.intensity[:, :4] == 0.3)
        assert np.all(final.intensity[:, 4:] == 0.9)

    def test_tile_pieces_gather_by_flat_index(self):
        """A tile owner ships one index set over its tiles, even for one
        tile — the wire form the gather has always priced."""
        img = _image_with(0.5)
        tiles = [TilePart(Rect(0, 0, 2, 2)), TilePart(Rect(4, 6, 6, 8))]
        for outcome in ((OwnedPiece.cut(tiles[0], img),),
                        tuple(OwnedPiece.cut(t, img) for t in tiles)):
            rect, flat, raw_i, _ = gather_payload(outcome, 8)
            assert rect is None and flat.dtype == np.int64
            assert len(raw_i) == 8 * flat.size
            final = self._roundtrip(outcome)
            assert np.count_nonzero(final.intensity) == flat.size

    def test_no_pieces_gather_an_empty_index_set(self):
        rect, flat, raw_i, raw_a = gather_payload((), 8)
        assert rect is None and flat.shape == (0,) and flat.dtype == np.int64
        assert raw_i == raw_a == b""
