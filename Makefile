# Entry points for the tier-1 verification and the hot-path perf gate.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test chaos chaos-service check golden-check bench-hotpath bench-fleet bench-check bench-trace-smoke bench-paper paper-check

# Tier-1: the full unit/integration/property suite.  It includes the
# pinned determinism run (every service, journal, ledger and fleet
# digest in fresh interpreters under four hash seeds), the examples and
# the source-convention checks.
test:
	$(PYTHON) -m pytest -x -q

# Chaos suite: 25+ seeded randomized fault plans against the hardened
# OTA pipeline, asserting the robustness invariants hold under each.
chaos:
	$(PYTHON) -m pytest -q tests/test_chaos_ota.py

# Service-layer chaos: 25 seeded resilient sessions, each killed at a
# seed-derived journal record boundary (with torn final writes) and
# recovered; every seed must end all-terminal with the recovered
# session's digest bit-identical to the uninterrupted golden run's.
chaos-service:
	$(PYTHON) -m pytest -q tests/test_chaos_service.py

# Full gate: what CI runs - tier-1 (which collects the OTA and service
# chaos suites), the golden-vector and paper-table drift gates and the
# traced benchmark smoke - plus the perf-regression check, which CI
# does not run.
check: test golden-check paper-check bench-trace-smoke bench-check

# PHY golden-vector drift gate: the committed conformance corpus
# (tests/fixtures/phy_golden/) must match what the current modulators
# and demodulators regenerate, bit for bit.  Rerun the generator
# without --check after an intentional DSP change.
golden-check:
	$(PYTHON) -m tests.gen_phy_golden --check

# Regenerate BENCH_hotpath.json at the repo root.
bench-hotpath:
	$(PYTHON) benchmarks/bench_hotpath_throughput.py

# Campaign entries only (legacy, faulty and the 100k-node fleet
# engine); a filtered sweep never rewrites the committed baseline.
bench-fleet:
	$(PYTHON) benchmarks/bench_hotpath_throughput.py --only 'ota_campaign*'

# Fail (exit nonzero) on >30% fast-path throughput regression vs the
# committed BENCH_hotpath.json baseline, and on the absolute floors:
# the fleet engine (100x ota_campaign events/s), the service cache
# hit ratio, and the streaming LoRa receiver (>= 4.0 Msps sustained).
bench-check:
	$(PYTHON) benchmarks/check_regression.py

# Traced-benchmark smoke: perfbench's own tests (tier-1 collects only
# tests/), then each perfbench workload runs for 2 s with its stage
# tracing on.  The last line must report "correct": true, which fails
# when an operation fails or when a layer the benchmark traces is no
# longer where the benchmark looks for it.
bench-trace-smoke:
	$(PYTHON) -m pytest -q perfbench
	@for workload in lora_gateway_rx fleet_ota_100k service_zipf_journal; do \
		result=$$($(PYTHON) perfbench/run.py --workload $$workload \
			--trace 1 --seconds 2 | tail -n 1); \
		case "$$result" in \
			*'"correct": true'*) echo "$$workload: correct" ;; \
			*) echo "$$workload: not correct: $$result"; exit 1 ;; \
		esac; \
	done

# The paper's tables/figures (pytest-benchmark suite).
bench-paper:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Paper-table drift gate: regenerate every table into an emptied
# benchmarks/results/ and fail when the directory differs from the
# committed copy - a changed table, a new one or one no bench writes
# any more.  Commit the regenerated tables after an intentional change.
paper-check:
	find benchmarks/results -mindepth 1 -delete
	$(MAKE) bench-paper
	@drift=$$(git status --porcelain --untracked-files=all -- benchmarks/results/); \
	if [ -n "$$drift" ]; then \
		echo "benchmarks/results/ differs from the committed tables:"; \
		echo "$$drift"; \
		git --no-pager diff -- benchmarks/results/; \
		exit 1; \
	fi
