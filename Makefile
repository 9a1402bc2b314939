# Convenience targets for the reproduction workflow.

PYTHON ?= python

.PHONY: install test bench warm examples clean-cache loc perf-pairs

install:
	$(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

bench: warm
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

# alternating parent/change pairs of perfbench/run.py (see
# benchmarks/perf_pairs.py); e.g. make perf-pairs BASE=HEAD~1 PAIRS=7
BASE ?= HEAD
PAIRS ?= 5
perf-pairs:
	$(PYTHON) benchmarks/perf_pairs.py --base $(BASE) --pairs $(PAIRS)

warm:
	$(PYTHON) benchmarks/warm_cache.py

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/run_custom_program.py
	$(PYTHON) examples/opposite_trends.py
	$(PYTHON) examples/hardening_case_study.py
	$(PYTHON) examples/microarchitecture_sweep.py

clean-cache:
	rm -rf .repro-cache tests/.test-cache benchmarks/out

loc:
	find src tests benchmarks examples -name "*.py" | xargs wc -l | tail -1
