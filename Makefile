# Convenience targets for the repro package.

PYTHON ?= python

.PHONY: install test bench bench-quick bench-scale bench-tile bench-e2e bench-e2e-smoke bench-pairs chaos explore explore-smoke grid serve-smoke serve-chaos soak verify lint results quick clean

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Seconds-fast hot-path speedup report (no baseline write).
bench-quick:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_hotpaths.py --smoke

# Simulator-scale smoke: reduced P=256 event-vs-lockstep + compositing
# runs, failing when any workload takes > 2x the committed baseline in
# BENCH_sim_scale.json (the CI wall-clock regression guard).
bench-scale:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_sim_scale.py --smoke --check

# Tile-routed latency smoke: small-P latency-to-first-pixel sweep with
# bit-identity asserted against binary-swap:raw, failing when any
# workload takes > 2x the committed baseline in BENCH_tile.json or the
# P=64 first-pixel advantage drops below its 2x floor.
bench-tile:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_tile.py --smoke --check

# End-to-end benchmark (BENCHMARK.json): six workloads from a one-shot
# frame to a spooled job, every output checked, compared against
# benchmarks/e2e/baseline.json (exit 1 on `regressed`; ~3 min).  The
# script finds src/ itself.
bench-e2e:
	python3 benchmarks/e2e/run.py --check

# The benchmark harness's own tests on smoke-sized scenes (~40 s):
# golden digests and modelled clocks, span accounting, the driver form.
bench-e2e-smoke:
	$(PYTHON) -m pytest benchmarks/e2e -q

# Before/after claim: alternating parent/change pairs of the driver form
# of each named workload (medians, quartiles, wins, and a regress verdict
# against the BENCHMARK.json bound; ~0.5 min per pair).
#   make bench-pairs REV=HEAD~1 WORKLOAD="oneshot_sparse serve_spool" [PAIRS=10] [SEED=0]
PAIRS ?= 10
SEED ?= 0
bench-pairs:
	$(PYTHON) tools/bench_pairs.py --against $(REV) --workload $(WORKLOAD) \
		--pairs $(PAIRS) --seed $(SEED)

# Randomized fault-injection suite (seeded, so failures reproduce), plus
# the render pool's killed-worker and parent-death tests and the mp
# transport's tests (its supervisor is the one dead-rank detector).
# Uses pytest-timeout's per-test kill switch when installed; the suite
# also carries its own SIGALRM watchdog so it never hangs without it.
chaos:
	PYTHONPATH=src $(PYTHON) -m pytest tests/test_chaos.py tests/test_render_pool.py \
		tests/test_mp_backend.py "tests/test_faults.py::TestMPSupervisor" -q \
		$(shell $(PYTHON) -c "import pytest_timeout" 2>/dev/null && echo --timeout=120 --timeout-method=signal)

# Schedule exploration: 200 seeded random interleavings of the canonical
# crash+delay scenario, each classified bit-identical-or-declared-outcome
# against the deterministic baseline; failing interleavings save
# replayable repro.sched-trace/1 files under results/sched-traces/.
explore:
	PYTHONPATH=src $(PYTHON) -m repro.experiments.cli --out results explore \
		--method binary-swap:raw --ranks 8 --fault-plan default \
		--policy random --interleavings 200

# Bounded CI variant: random walks + the adversarial rotation over both
# the stage-structured and the tile-routed planes (~64 interleavings
# total), plus the exploration unit suite.
explore-smoke:
	PYTHONPATH=src $(PYTHON) -m pytest tests/test_explore.py -q \
		$(shell $(PYTHON) -c "import pytest_timeout" 2>/dev/null && echo --timeout=300 --timeout-method=signal)
	PYTHONPATH=src $(PYTHON) -m repro.experiments.cli --out results explore \
		--method binary-swap:raw --ranks 8 --fault-plan default \
		--policy random --interleavings 24
	PYTHONPATH=src $(PYTHON) -m repro.experiments.cli --out results explore \
		--method binary-swap:raw --ranks 8 --fault-plan default \
		--policy adversarial --interleavings 8
	PYTHONPATH=src $(PYTHON) -m repro.experiments.cli --out results explore \
		--method tile-routed:rle --ranks 8 --fault-plan default \
		--policy random --interleavings 24
	PYTHONPATH=src $(PYTHON) -m repro.experiments.cli --out results explore \
		--method tile-routed:rle --ranks 8 --fault-plan default \
		--policy adversarial --interleavings 8

# Render-service smoke: the serving/session/progress unit suites, then
# four concurrent jobs through the real CLI spool (mixed methods incl.
# tile-routed:rle, one crash-fault job under degrade QoS and one under
# available QoS) — streamed frames monotone in coverage, finals
# bit-identical to one-shot runs.
serve-smoke:
	PYTHONPATH=src $(PYTHON) -m pytest tests/test_progress.py tests/test_session.py tests/test_serving.py -q
	$(PYTHON) tools/serve_smoke.py

# Serving kill-restart matrix: SIGKILL a spool server while jobs are
# queued and mid-render (mp + checkpoints included), restart, and assert
# lease reclamation, exactly-one-result, and bit-identical finals; plus
# the deterministic 4x-capacity overload matrix per shedding policy.
# Uses pytest-timeout's per-test kill switch when installed; the suite
# also carries its own SIGALRM watchdog so it never hangs without it.
serve-chaos:
	PYTHONPATH=src $(PYTHON) -m pytest tests/test_serve_chaos.py -q \
		$(shell $(PYTHON) -c "import pytest_timeout" 2>/dev/null && echo --timeout=300 --timeout-method=signal)

# Nightly soak: loop the chaos + recovery suites on fresh seed windows
# for SOAK_MINUTES (default 20), saving failing fault plans as JSON
# artifacts under soak-artifacts/ so every failure reproduces offline.
soak:
	$(PYTHON) tools/soak.py

# Schedule x codec equivalence grid: every combo vs the sequential
# oracle, plus bit-parity of the paper aliases and bslcv against what
# the hand-written classes they replaced produced — pixels, counters,
# modelled clocks — as recorded in tests/data/seed_counters.json; and
# the definition of BSLC's interleaved part with its pinned runs; the
# memoized program table against per-rank builds, and the BSBRC wire
# path against the loop run codecs.
grid:
	PYTHONPATH=src $(PYTHON) -m pytest tests/test_grid_equivalence.py tests/test_schedule_codec.py \
		tests/test_program_table.py tests/test_rect_rle_wire.py tests/test_interleave.py -q

# What CI gates on: the tier-1 suite, then the end-to-end harness's own
# tests (19 tests, ~21 s: golden digests and modelled clocks — the
# bit-identity gate every simplicity change leans on), plus the hot-path
# regression check.  Ends with the source line count, the before-number
# of the next simplicity change.
verify:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/e2e -q
	PYTHONPATH=src $(PYTHON) benchmarks/bench_hotpaths.py --smoke --check
	@echo "source lines: $$(find src -name '*.py' | xargs wc -l | tail -1)"

# Static checks (config in pyproject.toml [tool.ruff]); CI runs the same.
lint:
	$(PYTHON) -m ruff check src tests benchmarks examples

results:
	$(PYTHON) -m repro.experiments --out results all

quick:
	$(PYTHON) -m repro.experiments --quick --out results-quick all

clean:
	rm -rf results results-quick benchmarks/results .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
