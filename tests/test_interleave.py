"""The interleaved-section part (BSLC load balancing, §3.3 Figure 6).

An :class:`~repro.compositing.schedule.IndexPart` is four integers, and
its ``split``/``flat``/``pixels`` must reproduce the positional rule the
paper states — section ``j`` of the current owned sequence goes to half
``j % 2`` — which :func:`oracle_split` spells out over explicit index
arrays.  The last class pins what the part produces end to end.
"""

import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compositing.schedule import IndexPart, SectionedSchedule
from repro.errors import ConfigurationError
from repro.pipeline.config import RunConfig
from repro.pipeline.phases import GATHER_STAGE
from repro.pipeline.system import SortLastSystem
from repro.types import Rect
from repro.volume.partition import recursive_bisect


def oracle_split(indices, section, keep_first):
    """Section ``j`` of ``indices`` goes to half ``j % 2``: ``(kept, sent)``."""
    first = (np.arange(indices.size) // section) % 2 == 0
    if keep_first:
        return indices[first], indices[~first]
    return indices[~first], indices[first]


def fields(part):
    return tuple(getattr(part, f.name) for f in dataclasses.fields(part))


class TestBasics:
    def test_descriptor_is_four_integers(self):
        names = tuple(f.name for f in dataclasses.fields(IndexPart))
        assert names == ("frame_pixels", "section", "stride", "offset")

    def test_initial_indices(self):
        part = IndexPart(5, 3)
        assert part.flat().tolist() == [0, 1, 2, 3, 4]
        assert part.flat().dtype == np.int64 and part.num_pixels == 5

    def test_section_one_alternates(self):
        kept, sent = IndexPart(6, 1).split(keep_first=True)
        assert kept.flat().tolist() == [0, 2, 4]
        assert sent.flat().tolist() == [1, 3, 5]

    def test_section_two_groups(self):
        kept, sent = IndexPart(8, 2).split(keep_first=True)
        assert kept.flat().tolist() == [0, 1, 4, 5]
        assert sent.flat().tolist() == [2, 3, 6, 7]

    def test_keep_first_false_swaps(self):
        kept_a, sent_a = IndexPart(6, 1).split(keep_first=True)
        kept_b, sent_b = IndexPart(6, 1).split(keep_first=False)
        assert fields(kept_a) == fields(sent_b) == (6, 1, 2, 0)
        assert fields(sent_a) == fields(kept_b) == (6, 1, 2, 1)

    def test_bad_section(self):
        with pytest.raises(ConfigurationError, match="section must be >= 1"):
            SectionedSchedule(section=0)

    def test_positions_not_values_drive_split(self):
        """Splitting is positional: a strided owned part still halves evenly."""
        part = IndexPart(64, 4, stride=2)  # 8 sections, 32 owned pixels
        kept, sent = part.split(keep_first=True)
        assert kept.num_pixels == sent.num_pixels == 16
        expected_kept, _ = oracle_split(part.flat(), 4, True)
        assert np.array_equal(kept.flat(), expected_kept)

    def test_short_last_section_is_owned_once(self):
        plane = np.arange(10.0).reshape(2, 5)
        kept, sent = IndexPart(10, 4).split(keep_first=True)
        assert kept.flat().tolist() == [0, 1, 2, 3, 8, 9]
        assert kept.pixels(plane).tolist() == [0.0, 1.0, 2.0, 3.0, 8.0, 9.0]
        assert sent.pixels(plane).tolist() == [[4.0, 5.0, 6.0, 7.0]]  # a view

    def test_section_longer_than_frame(self):
        kept, sent = IndexPart(5, 8).split(keep_first=True)
        assert kept.flat().tolist() == [0, 1, 2, 3, 4]
        assert sent.num_pixels == 0 and sent.flat().size == 0
        assert sent.pixels(np.ones(5)).size == 0


class TestPartitionProperties:
    @given(n=st.integers(0, 500), section=st.integers(1, 64))
    @settings(max_examples=150)
    def test_exhaustive_disjoint(self, n, section):
        kept, sent = IndexPart(n, section).split(keep_first=True)
        merged = np.sort(np.concatenate([kept.flat(), sent.flat()]))
        assert np.array_equal(merged, np.arange(n))
        assert len(np.intersect1d(kept.flat(), sent.flat())) == 0

    @given(n=st.integers(2, 512), section=st.integers(1, 32))
    @settings(max_examples=150)
    def test_balanced_within_one_section(self, n, section):
        kept, sent = IndexPart(n, section).split(keep_first=True)
        assert abs(kept.num_pixels - sent.num_pixels) <= section

    @given(levels=st.integers(1, 4), section=st.integers(1, 8))
    @settings(max_examples=60)
    def test_binary_swap_ownership_partitions(self, levels, section):
        """Every rank's keep decisions yield a partition of the pixel set —
        the global invariant BSLC relies on."""
        num_ranks = 1 << levels
        num_pixels = 257  # deliberately not divisible by anything nice
        owned = []
        for rank in range(num_ranks):
            part = IndexPart(num_pixels, section)
            for stage in range(levels):
                part, _ = part.split(((rank >> stage) & 1) == 0)
            owned.append(part.flat())
        combined = np.sort(np.concatenate(owned))
        assert np.array_equal(combined, np.arange(num_pixels))

    @given(levels=st.integers(1, 4))
    @settings(max_examples=30)
    def test_partners_split_identical_sets(self, levels):
        """Partners at stage k own identical parts at stage entry (they
        share rank bits below k), so their splits are mutually consistent."""
        num_ranks = 1 << levels

        def owned_at_stage(rank, stage):
            part = IndexPart(128, 4)
            for s in range(stage):
                part, _ = part.split(((rank >> s) & 1) == 0)
            return fields(part)

        for stage in range(levels):
            for rank in range(num_ranks):
                partner = rank ^ (1 << stage)
                assert owned_at_stage(rank, stage) == owned_at_stage(partner, stage)

    @given(
        n=st.integers(0, 3000),
        section=st.integers(1, 300),
        levels=st.integers(0, 6),
        rank_seed=st.integers(0, 63),
    )
    @settings(max_examples=120, deadline=None)
    def test_descriptor_matches_explicit_indices(self, n, section, levels, rank_seed):
        """Down one rank's stages (P up to 64), the part and the oracle's
        index arrays agree on every view the codecs and the gather use."""
        rank = rank_seed % (1 << levels)
        rng = np.random.default_rng(n)
        plane = rng.random(n).reshape(1, n)
        indices, part = np.arange(n, dtype=np.int64), IndexPart(n, section)
        for stage in range(levels):
            keep_first = ((rank >> stage) & 1) == 0
            kept, sent = part.split(keep_first)
            both = np.sort(np.concatenate([kept.flat(), sent.flat()]))
            assert np.array_equal(both, part.flat())
            indices, _ = oracle_split(indices, section, keep_first)
            part = kept
        flat = part.flat()
        assert np.array_equal(flat, indices)
        assert part.num_pixels == flat.size
        assert np.all(np.diff(flat) > 0)
        assert np.array_equal(np.ravel(part.pixels(plane)), plane.ravel()[flat])
        positions = np.flatnonzero(rng.random(flat.size) < 0.1)
        assert np.array_equal(part.flat(positions), flat[positions])


class TestFootprint:
    def test_paper_unit_programs_hold_no_pixel_lists(self):
        """All 64 rank programs of a 384x384 frame fit in well under a
        megabyte: a part is a pattern, not a list of 147k indices."""
        num_ranks, num_pixels = 64, 384 * 384
        plan = recursive_bisect((32, 32, 16), num_ranks)
        view, frame = np.array([0.37, -0.61, 0.70]), Rect(0, 0, 384, 384)
        schedule = SectionedSchedule()
        tracemalloc.start()
        try:
            programs = [
                schedule.build(rank, num_ranks, frame, num_pixels, plan, view)
                for rank in range(num_ranks)
            ]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(programs) == num_ranks
        assert peak < 1_000_000, f"peak {peak} bytes"


#: Recorded from the index-array implementation this part replaced:
#: final-image digest, modelled makespan, and per-rank
#: ``[stage, bytes_sent, bytes_recv, msgs_sent, msgs_recv]`` rows
#: (stage -1 is the fold pre-merge, GATHER_STAGE the final gather).
G = GATHER_STAGE
PINNED = {
    ("bslc", 8): (
        "23aefc440b024e4a787f3bc2c14e0907",
        0.004166136,
        [
            [[0, 754, 1218, 1, 1], [1, 606, 738, 1, 1], [2, 722, 782, 1, 1], [G, 0, 47088, 0, 7]],
            [[0, 1218, 754, 1, 1], [1, 702, 1194, 1, 1], [2, 758, 702, 1, 1], [G, 9360, 0, 1, 0]],
            [[0, 898, 1250, 1, 1], [1, 738, 606, 1, 1], [2, 750, 606, 1, 1], [G, 6288, 0, 1, 0]],
            [[0, 1250, 898, 1, 1], [1, 1194, 702, 1, 1], [2, 606, 750, 1, 1], [G, 6288, 0, 1, 0]],
            [[0, 1230, 898, 1, 1], [1, 606, 934, 1, 1], [2, 782, 722, 1, 1], [G, 6288, 0, 1, 0]],
            [[0, 898, 1230, 1, 1], [1, 770, 870, 1, 1], [2, 702, 758, 1, 1], [G, 6288, 0, 1, 0]],
            [[0, 1202, 738, 1, 1], [1, 934, 606, 1, 1], [2, 606, 750, 1, 1], [G, 6288, 0, 1, 0]],
            [[0, 738, 1202, 1, 1], [1, 870, 770, 1, 1], [2, 750, 606, 1, 1], [G, 6288, 0, 1, 0]],
        ],
    ),
    ("bslc", 6): (
        "9ee4089517da3300218d910841ea0818",
        0.004777672,
        [
            [[-1, 0, 3128, 0, 1], [0, 1634, 1506, 1, 1], [1, 1354, 1538, 1, 1], [G, 0, 40488, 0, 5]],
            [[-1, 0, 3128, 0, 1], [0, 1506, 1634, 1, 1], [1, 1302, 1422, 1, 1], [G, 15504, 0, 1, 0]],
            [[0, 1506, 1634, 1, 1], [1, 1538, 1354, 1, 1], [G, 12432, 0, 1, 0]],
            [[0, 1634, 1506, 1, 1], [1, 1422, 1302, 1, 1], [G, 12432, 0, 1, 0]],
            [[-1, 3128, 0, 1, 0], [G, 60, 0, 1, 0]],
            [[-1, 3128, 0, 1, 0], [G, 60, 0, 1, 0]],
        ],
    ),
    ("bslcv", 8): (
        "23aefc440b024e4a787f3bc2c14e0907",
        0.0041819959999999995,
        [
            [[0, 972, 1494, 1, 1], [1, 738, 900, 1, 1], [2, 882, 936, 1, 1], [G, 0, 47088, 0, 7]],
            [[0, 1494, 972, 1, 1], [1, 846, 1440, 1, 1], [2, 936, 846, 1, 1], [G, 9360, 0, 1, 0]],
            [[0, 1134, 1530, 1, 1], [1, 900, 738, 1, 1], [2, 900, 738, 1, 1], [G, 6288, 0, 1, 0]],
            [[0, 1530, 1134, 1, 1], [1, 1440, 846, 1, 1], [2, 738, 900, 1, 1], [G, 6288, 0, 1, 0]],
            [[0, 1494, 1134, 1, 1], [1, 738, 1134, 1, 1], [2, 936, 882, 1, 1], [G, 6288, 0, 1, 0]],
            [[0, 1134, 1494, 1, 1], [1, 936, 1062, 1, 1], [2, 846, 936, 1, 1], [G, 6288, 0, 1, 0]],
            [[0, 1476, 954, 1, 1], [1, 1134, 738, 1, 1], [2, 738, 900, 1, 1], [G, 6288, 0, 1, 0]],
            [[0, 954, 1476, 1, 1], [1, 1062, 936, 1, 1], [2, 900, 738, 1, 1], [G, 6288, 0, 1, 0]],
        ],
    ),
    ("bslcv", 6): (
        "9ee4089517da3300218d910841ea0818",
        0.0047936459999999995,
        [
            [[-1, 0, 3128, 0, 1], [0, 1962, 1818, 1, 1], [1, 1620, 1854, 1, 1], [G, 0, 40488, 0, 5]],
            [[-1, 0, 3128, 0, 1], [0, 1818, 1962, 1, 1], [1, 1548, 1710, 1, 1], [G, 15504, 0, 1, 0]],
            [[0, 1818, 1962, 1, 1], [1, 1854, 1620, 1, 1], [G, 12432, 0, 1, 0]],
            [[0, 1962, 1818, 1, 1], [1, 1710, 1548, 1, 1], [G, 12432, 0, 1, 0]],
            [[-1, 3128, 0, 1, 0], [G, 60, 0, 1, 0]],
            [[-1, 3128, 0, 1, 0], [G, 60, 0, 1, 0]],
        ],
    ),
}


class TestPinnedRuns:
    @pytest.mark.parametrize("method,num_ranks", sorted(PINNED))
    def test_system_run_matches_recorded(self, method, num_ranks):
        digest, makespan, wire = PINNED[method, num_ranks]
        cfg = RunConfig(
            dataset="engine_low", image_size=48, num_ranks=num_ranks, method=method,
            volume_shape=(32, 32, 16),
        )
        result = SortLastSystem(cfg).run(backend="sim")
        pixels = hashlib.blake2b(digest_size=16)
        pixels.update(np.ascontiguousarray(result.final_image.intensity).tobytes())
        pixels.update(np.ascontiguousarray(result.final_image.opacity).tobytes())
        assert pixels.hexdigest() == digest
        assert result.timeline.makespan == makespan
        assert [
            [[k, b.bytes_sent, b.bytes_recv, b.msgs_sent, b.msgs_recv]
             for k, b in sorted(rs.stages.items())]
            for rs in result.timeline.rank_stats
        ] == wire
