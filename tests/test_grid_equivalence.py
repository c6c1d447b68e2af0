"""Grid equivalence: every schedule × codec combo, priced and verified.

Three layers of guarantees:

* **pixel equivalence** — every compatible combo, at every small P, on a
  sparse and a dense workload, reproduces the sequential depth-order
  composite and yields a valid ownership partition;
* **paper parity** — the four paper aliases (``bs``/``bsbr``/``bslc``/
  ``bsbrc``) and ``bslcv``, thin combos over the engine, are
  *bit-for-bit* identical to the hand-written classes they replaced:
  same pixels, modelled clocks and per-rank per-stage byte/message/
  counter accounting, pinned in ``tests/data/seed_counters.json``
  (``methods``: recorded from the seed implementations;
  ``legacy_parity``: recorded from the last commit that still carried
  the classes, see its ``_note``);
* **radix degeneracy** — ``radix-k`` with ``[2]*log2(P)`` equals binary
  swap exactly, and a non-trivial radix runs end-to-end on the simulator
  and the multiprocessing backend, with the method name visible in the
  run-timeline.
"""

import hashlib
import json
import os

import numpy as np
import pytest

from conftest import rendered_workload
from repro.cluster.model import SP2
from repro.compositing.registry import COMBO_ALIASES, PAPER_METHODS, available_methods
from repro.pipeline.system import assemble_final, run_compositing, validate_ownership

pytestmark = pytest.mark.grid

ALL_COMBOS = tuple(m for m in available_methods() if ":" in m)

#: sparse (engine block, mostly background) and dense (solid cube).
GRID_DATASETS = ("engine_low", "cube")
GRID_RANKS = (2, 4, 8)

with open(
    os.path.join(os.path.dirname(__file__), "data", "seed_counters.json"),
    encoding="utf-8",
) as _fh:
    SEED = json.load(_fh)


def _run(subimages, method, plan, camera, **options):
    return run_compositing(
        [img.copy() for img in subimages], method, plan, camera.view_dir, SP2,
        **options,
    )


def _stage_accounting(run):
    """Per-rank per-stage wire accounting, as plain comparable data."""
    ranks = []
    for rank_stats in run.stats.rank_stats:
        stages = {}
        for idx in sorted(rank_stats.stages):
            st = rank_stats.stages[idx]
            stages[str(idx)] = {
                "bytes_sent": st.bytes_sent,
                "bytes_recv": st.bytes_recv,
                "msgs_sent": st.msgs_sent,
                "msgs_recv": st.msgs_recv,
                "counters": {k: int(v) for k, v in sorted(st.counters.items())},
            }
        ranks.append(stages)
    return ranks


def _parity_record(run, shape):
    """Everything the legacy classes pinned, as plain comparable data.

    Clocks are compared by exact ``repr`` and pixels by a digest of the
    assembled final planes: identical charge sequences and identical
    folds give identical values, not merely close ones.
    """
    final = assemble_final(run.outcomes, *shape)
    pixels = hashlib.blake2b(digest_size=16)
    pixels.update(np.ascontiguousarray(final.intensity).tobytes())
    pixels.update(np.ascontiguousarray(final.opacity).tobytes())
    return {
        "mmax_bytes": run.stats.mmax_bytes,
        "t_comp": repr(float(run.stats.t_comp)),
        "t_comm": repr(float(run.stats.t_comm)),
        "pixels_blake2b": pixels.hexdigest(),
        "ranks": _stage_accounting(run),
    }


def _images_equal(a, b) -> bool:
    return np.array_equal(a.intensity, b.intensity) and np.array_equal(
        a.opacity, b.opacity
    )


# ---------------------------------------------------------------------------
# Every combo × P × sparsity regime vs the sequential oracle
# ---------------------------------------------------------------------------
class TestComboGrid:
    @pytest.mark.parametrize("num_ranks", GRID_RANKS)
    @pytest.mark.parametrize("dataset", GRID_DATASETS)
    @pytest.mark.parametrize("combo", ALL_COMBOS)
    def test_combo_matches_oracle_and_partitions(self, combo, dataset, num_ranks):
        from conftest import reference_image

        subimages, plan, camera = rendered_workload(dataset, num_ranks)
        reference = reference_image(dataset, num_ranks)
        run = _run(subimages, combo, plan, camera)
        final = assemble_final(run.outcomes, *subimages[0].shape)
        assert final.max_abs_diff(reference) < 1e-9
        validate_ownership(run.outcomes, *subimages[0].shape)


# ---------------------------------------------------------------------------
# Paper aliases vs the recorded output of the classes they replaced
# ---------------------------------------------------------------------------
class TestPaperParity:
    @pytest.mark.parametrize("alias", sorted(COMBO_ALIASES))
    @pytest.mark.parametrize("dataset", GRID_DATASETS)
    def test_alias_bit_identical_to_legacy(self, alias, dataset):
        subimages, plan, camera = rendered_workload(dataset, 8)
        run = _run(subimages, alias, plan, camera)
        recorded = SEED["legacy_parity"][dataset][alias]
        assert _parity_record(run, subimages[0].shape) == recorded

    @pytest.mark.parametrize("alias", sorted(PAPER_METHODS))
    def test_alias_matches_recorded_seed_counters(self, alias):
        spec = SEED["workload"]
        subimages, plan, camera = rendered_workload(
            spec["dataset"], spec["num_ranks"], spec["image_size"],
            tuple(spec["rotation"]), tuple(spec["volume_shape"]),
        )
        run = _run(subimages, alias, plan, camera)
        recorded = SEED["methods"][alias]
        assert run.stats.mmax_bytes == recorded["mmax_bytes"]
        assert _stage_accounting(run) == recorded["ranks"]


# ---------------------------------------------------------------------------
# Radix-k: degeneracy and non-trivial factorizations
# ---------------------------------------------------------------------------
class TestRadixK:
    @pytest.mark.parametrize("num_ranks", [2, 4, 8])
    def test_all_twos_equals_binary_swap_exactly(self, num_ranks):
        import math

        subimages, plan, camera = rendered_workload("engine_low", num_ranks)
        radix = (2,) * int(math.log2(num_ranks))
        rk_run = _run(subimages, "radix-k:raw", plan, camera, radix=radix)
        bs_run = _run(subimages, "bs", plan, camera)
        rk_final = assemble_final(rk_run.outcomes, *subimages[0].shape)
        bs_final = assemble_final(bs_run.outcomes, *subimages[0].shape)
        assert _images_equal(rk_final, bs_final)
        assert _stage_accounting(rk_run) == _stage_accounting(bs_run)
        assert rk_run.stats.t_comp == bs_run.stats.t_comp
        assert rk_run.stats.t_comm == bs_run.stats.t_comm

    @pytest.mark.parametrize("radix", [(4, 4), (8, 2), (16,), (2, 8)])
    def test_nontrivial_radix_p16(self, radix):
        from conftest import reference_image

        subimages, plan, camera = rendered_workload("engine_low", 16)
        reference = reference_image("engine_low", 16)
        run = _run(subimages, "radix-k:rect-rle", plan, camera, radix=radix)
        final = assemble_final(run.outcomes, *subimages[0].shape)
        assert final.max_abs_diff(reference) < 1e-9
        validate_ownership(run.outcomes, *subimages[0].shape)
        # Fewer stages than binary swap: log over the factors, not log2 P.
        stage_sets = {
            idx
            for rank_stats in run.stats.rank_stats
            for idx in rank_stats.stages
            if idx >= 0
        }
        assert stage_sets == set(range(len(radix)))

    def test_radix_timeline_on_sim_backend(self):
        from repro.pipeline.config import RunConfig
        from repro.pipeline.system import SortLastSystem

        cfg = RunConfig(
            dataset="engine_low", image_size=48, num_ranks=16,
            method="radix-k:rect-rle", method_options={"radix": (4, 4)},
            volume_shape=(32, 32, 16),
        )
        result = SortLastSystem(cfg).run(backend="sim", trace=True)
        doc = result.timeline.to_dict()
        assert doc["meta"]["method"] == "radix-k:rect-rle"
        reference = result.reference_image()
        assert np.allclose(result.final_image.intensity, reference.intensity)

    def test_radix_on_mp_backend(self):
        from repro.pipeline.config import RunConfig
        from repro.pipeline.system import SortLastSystem

        cfg = RunConfig(
            dataset="engine_low", image_size=32, num_ranks=4,
            method="radix-k:raw", method_options={"radix": (4,)},
            volume_shape=(32, 32, 16), comm_timeout=10.0,
        )
        mp_result = SortLastSystem(cfg).run(backend="mp")
        sim_result = SortLastSystem(cfg).run(backend="sim")
        assert _images_equal(mp_result.final_image, sim_result.final_image)
