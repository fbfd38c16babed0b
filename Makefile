.PHONY: install test bench bench-smoke check-autotune check-backends check-chaos check-perfbench check-resilience check-scheduler check-static check-types tables csv examples all clean

install:
	pip install -e . --no-build-isolation

test:
	pytest tests/

bench:
	pytest benchmarks/ --benchmark-only

# Quick hot-path perf smoke (asserts bit-identical scalar/vectorized parity).
# PYTHONPATH makes it work from a bare checkout, before `make install`.
bench-smoke:
	PYTHONPATH=src python benchmarks/bench_hotpaths.py

# Backend-registry health: every registered backend agrees with the
# vectorized reference, context dispatch stays within 5% of a direct
# backend call, and the plan cache makes relaunching one shape strictly
# cheaper than recompiling every launch (hit rates + <1.0x gate; writes
# benchmarks/results/dispatch.json).
check-backends:
	PYTHONPATH=src python benchmarks/bench_dispatch.py --out benchmarks/results/dispatch.json

# Adaptive-dispatch health: sweep the Fig-14 density grid with
# backend="auto" against every static backend; at every point a cold
# planner must land within 1.05x of the best static backend, and a
# warmed AutotuneTable must shift at least one crossover-region choice
# (writes benchmarks/results/autotune.json).
check-autotune:
	PYTHONPATH=src python benchmarks/bench_autotune.py --out benchmarks/results/autotune.json

# Resilience health: a seeded fault plan (corrupted tiles + a killed
# device) on a checked multi-device closure must be detected (zero false
# negatives), recovered bit-identically via retry + repartition, with zero
# false positives on the clean run; ABFT-checked closure stays <1.3x of
# unchecked at 512² (writes benchmarks/results/resilience.json).
check-resilience:
	PYTHONPATH=src python benchmarks/bench_resilience.py --out benchmarks/results/resilience.json

# Chaos soak: >=50 seeded randomized fault schedules (tight deadlines,
# backoff, cancellation, breakers, brownout closures, threaded faults)
# through the full stack; every run must terminate with a bit-correct
# result or a typed error, every seed must replay byte-identically on a
# virtual clock, and a hard-failing backend must stop being dispatched
# once its breaker trips and recover via the half-open probe (writes
# benchmarks/results/chaos.json).
check-chaos:
	PYTHONPATH=src python benchmarks/bench_chaos.py --out benchmarks/results/chaos.json

# Scheduler health: lowering a single launch onto a LaunchGraph stays
# within 1.05x of direct dispatch; a 4-worker threaded banded closure is
# byte-identical to serial; and on >=4 CPUs the 2048² 4-band closure
# iteration runs >=1.8x faster threaded (skipped, and recorded as
# skipped, on smaller machines; writes benchmarks/results/scheduler.json).
check-scheduler:
	PYTHONPATH=src python benchmarks/bench_scheduler.py --out benchmarks/results/scheduler.json

# Repo benchmark self-tests: the perfbench runner, workloads and per-layer
# tracer (BENCHMARK.json) still import, run a short window and report
# every declared metric.
check-perfbench:
	PYTHONPATH=src python -m pytest perfbench -q

# Static analysis gate: the repo-wide invariant lint (must be clean with
# zero suppressions) plus gradual typing.  Runs before the benchmark
# gates in CI so convention regressions fail fast.
check-static: check-types
	python tools/check_invariants.py

# Gradual typing: strict on repro.isa/repro.compile/repro.hooks,
# permissive elsewhere (config in pyproject.toml).  Skips gracefully
# when mypy is not installed — the bare container ships without it.
check-types:
	@if python -c "import mypy" 2>/dev/null; then \
		python -m mypy src/repro; \
	else \
		echo "mypy not installed; skipping check-types (pip install mypy to enable)"; \
	fi

tables:
	python -m repro.bench

csv:
	python -c "from repro.bench.export import export_all; print(*export_all('benchmarks/results/csv'), sep='\n')"

examples:
	@for script in examples/*.py; do \
		echo "== $$script =="; \
		python $$script || exit 1; \
	done

all: install test bench tables

clean:
	rm -rf .pytest_cache .hypothesis benchmarks/results build src/repro.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
