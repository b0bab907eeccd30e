# Convenience targets for the multi-mode co-synthesis reproduction.

PYTHON ?= python

# Floor for the async work-stealing arm's mean pool utilisation in
# `make bench-smoke`.  `auto` (default) derives it from os.cpu_count()
# vs --jobs: 0.85 with >= `--jobs` free cores, scaled down (floor 0.25)
# on smaller machines (e.g. a 1-CPU container) where the OS serialises
# the workers and the honest figure is lower.  Override per machine
# with a number, or disable with `off`:
#     make bench-smoke MIN_ASYNC_UTILISATION=0.40
MIN_ASYNC_UTILISATION ?= auto

.PHONY: install test test-fast lint typecheck bench bench-fast bench-smoke serve-smoke tables examples verify clean

install:
	pip install -e . --no-build-isolation

test:
	$(PYTHON) -m pytest tests/

test-fast:
	$(PYTHON) -m pytest tests/ -m "not slow"

# Static lint over the sources and tests.  ruff is pinned in the
# `dev` optional-dependency group; environments without it (e.g. the
# hermetic test container) skip the check instead of failing.
lint:
	@if command -v ruff >/dev/null 2>&1; then \
	    ruff check src tests; \
	else \
	    echo "ruff not installed (pip install -e '.[dev]'); skipping lint"; \
	fi

# Static type check.  mypy is pinned in the `dev` optional-dependency
# group; environments without it skip the check instead of failing.
# Scope: the strictly annotated subsystems ([tool.mypy] in
# pyproject.toml) — currently the adaptive, dvs, engine and eval
# packages.
typecheck:
	@if command -v mypy >/dev/null 2>&1; then \
	    mypy --config-file pyproject.toml; \
	else \
	    echo "mypy not installed (pip install -e '.[dev]'); skipping typecheck"; \
	fi

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Quick look: motivational figures + micro benches only.
bench-fast:
	$(PYTHON) -m pytest benchmarks/test_fig2_fig3.py \
	    benchmarks/test_micro.py --benchmark-only

# Evaluation-engine smoke benchmark: verifies every engine arm stays
# bit-identical to the seed oracle evaluator (tests/oracles), fails on a
# >20% speedup regression against the committed baseline, and gates the
# async work-stealing arm on mean pool utilisation >= 0.85 at jobs=4;
# then the PV-DVS kernel microbench (bit-identity to the seed loop).
bench-smoke:
	$(PYTHON) benchmarks/bench_engine.py --quick --jobs 4 \
	    --check benchmarks/results/bench_engine_quick_baseline.json \
	    --min-async-utilisation $(MIN_ASYNC_UTILISATION)
	$(PYTHON) benchmarks/bench_dvs.py --quick

# Campaign job server smoke: boot a real server through the CLI,
# submit a quick campaign, and require the served result to be
# identical to a direct in-process run of the same spec.
serve-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.server.smoke

# The full pre-merge gate: lint + typecheck (when available), tier-1
# test suite, the engine smoke benchmark (bit-identity + performance
# regression check), plus the job-server equivalence smoke.  Runs
# from a bare checkout — no `make install` needed.  Ends with a
# `SKIPPED:` line naming every gate whose tool was missing.
verify: lint typecheck
	PYTHONPATH=src $(PYTHON) -m pytest tests/
	$(PYTHON) benchmarks/bench_engine.py --quick \
	    --check benchmarks/results/bench_engine_quick_baseline.json
	PYTHONPATH=src $(PYTHON) -m repro.server.smoke
	@skipped=""; for tool in ruff mypy; do \
	    command -v $$tool >/dev/null 2>&1 || \
	        skipped="$${skipped:+$$skipped, }$$tool (not installed)"; \
	done; \
	if [ -n "$$skipped" ]; then echo "SKIPPED: $$skipped"; fi

tables:
	$(PYTHON) -m repro.cli table1 --runs 5
	$(PYTHON) -m repro.cli table2 --runs 2
	$(PYTHON) -m repro.cli table3 --runs 2

examples:
	$(PYTHON) examples/motivational_example.py
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/dvs_hardware_cores.py
	$(PYTHON) examples/simulation_validation.py
	$(PYTHON) examples/persist_simulate_battery.py
	$(PYTHON) examples/explore_area_tradeoff.py
	$(PYTHON) examples/campaign_resume.py
	$(PYTHON) examples/online_adaptation.py
	$(PYTHON) examples/smartphone_case_study.py

clean:
	rm -rf build dist src/repro.egg-info .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
