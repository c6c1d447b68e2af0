# Convenience targets for the repro package.

PYTHON ?= python

.PHONY: install test bench bench-e2e bench-e2e-smoke bench-pairs chaos explore explore-smoke grid serve-smoke serve-chaos soak verify lint results quick clean

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

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
# the render pool's killed-worker and parent-death tests, the mp
# transport's tests (its supervisor is the one dead-rank detector) and
# the cross-backend recovery matrix (its mp cases fork rank processes).
# Uses pytest-timeout's per-test kill switch when installed; the suite
# also carries its own SIGALRM watchdog so it never hangs without it.
chaos:
	PYTHONPATH=src $(PYTHON) -m pytest tests/test_chaos.py tests/test_render_pool.py \
		tests/test_mp_backend.py "tests/test_faults.py::TestMPSupervisor" \
		"tests/test_recovery.py::TestCrossBackendRecoveryMatrix" -q \
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
# the stage-structured and the tile-routed planes, plus a bounded DFS
# enumeration (~72 interleavings total), plus the exploration unit suite.
# Each sweep writes its report (explore.json/.txt) and any failing
# traces (sched-traces/) under its own results/explore/<method>-<policy>/
# (no colon in the name: CI artifact paths may not hold one).
explore-smoke:
	PYTHONPATH=src $(PYTHON) -m pytest tests/test_explore.py -q \
		$(shell $(PYTHON) -c "import pytest_timeout" 2>/dev/null && echo --timeout=300 --timeout-method=signal)
	PYTHONPATH=src $(PYTHON) -m repro.experiments.cli \
		--out results/explore/binary-swap-raw-random explore \
		--method binary-swap:raw --ranks 8 --fault-plan default \
		--policy random --interleavings 24
	PYTHONPATH=src $(PYTHON) -m repro.experiments.cli \
		--out results/explore/binary-swap-raw-adversarial explore \
		--method binary-swap:raw --ranks 8 --fault-plan default \
		--policy adversarial --interleavings 8
	PYTHONPATH=src $(PYTHON) -m repro.experiments.cli \
		--out results/explore/binary-swap-raw-dfs explore \
		--method binary-swap:raw --ranks 8 --fault-plan default \
		--policy dfs --interleavings 8
	PYTHONPATH=src $(PYTHON) -m repro.experiments.cli \
		--out results/explore/tile-routed-rle-random explore \
		--method tile-routed:rle --ranks 8 --fault-plan default \
		--policy random --interleavings 24
	PYTHONPATH=src $(PYTHON) -m repro.experiments.cli \
		--out results/explore/tile-routed-rle-adversarial explore \
		--method tile-routed:rle --ranks 8 --fault-plan default \
		--policy adversarial --interleavings 8

# Render-service smoke: the serving/session/progress unit suites, then
# five concurrent jobs through the real CLI spool (mixed methods incl.
# tile-routed:rle and bslc, whose event log replays index parts; one
# crash-fault job under degrade QoS and one under available QoS) —
# streamed frames monotone in coverage, event logs replaying to the
# final frame, finals bit-identical to one-shot runs.
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
# memoized program table against per-rank builds, the BSBRC wire
# path against the loop run codecs; the compositor contract (inputs
# read, never written; the gather's bytes pinned) and the outcome's
# retained bytes.  Then the paper-fidelity record and Tables 1 and 2
# (~1 min) must regenerate byte for byte against results/.
grid:
	PYTHONPATH=src $(PYTHON) -m pytest tests/test_grid_equivalence.py tests/test_schedule_codec.py \
		tests/test_program_table.py tests/test_rect_rle_wire.py tests/test_interleave.py \
		tests/test_compositor_contract.py tests/test_outcome_retention.py -q
	out=$$(mktemp -d) && \
	for cmd in compare table1 table2; do \
		PYTHONPATH=src $(PYTHON) -m repro.experiments --out $$out $$cmd > /dev/null || exit 1; \
	done && \
	for f in compare.txt table1.txt table1.json table2.txt table2.json; do \
		cmp $$out/$$f results/$$f || exit 1; \
	done && \
	rm -rf $$out

# What CI gates on: the tier-1 suite, then the end-to-end harness's own
# tests (19 tests, ~21 s: golden digests and modelled clocks — the
# bit-identity gate every simplicity change leans on).  Ends with the
# source line count, the before-number of the next simplicity change.
# Timing is the end-to-end benchmark's job (bench-e2e, bench-pairs).
verify:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/e2e -q
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
