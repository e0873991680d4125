# Convenience targets for the reproduction repository.

PYTHON ?= python3

.PHONY: install test bench bench-quick bench-trajectory bench-hotpath bench-pairs scale-gate examples clean

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

test-log:
	$(PYTHON) -m pytest tests/ 2>&1 | tee test_output.txt

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-log:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

bench-quick:
	REPRO_BENCH_QUICK=1 $(PYTHON) -m pytest benchmarks/ --benchmark-only
	PYTHONPATH=src $(PYTHON) benchmarks/perf_trajectory.py
	PYTHONPATH=src $(PYTHON) benchmarks/bench_hotpath.py

# Just the per-PR trajectory point (BENCH_PR.json), without the suite.
bench-trajectory:
	PYTHONPATH=src $(PYTHON) benchmarks/perf_trajectory.py

# Hot-path microbenches (the golden replay is tier-1's replay/hotpath).
bench-hotpath:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_hotpath.py

# Alternated parent/change pairs of whole-stack workloads, e.g.
#   make bench-pairs PARENT=/root/scratch/parent WORKLOAD=hotspot_swl_nftl_1ch
#   make bench-pairs PARENT=/root/scratch/parent WORKLOAD=all PAIRS=5
# (CHANGE defaults to this checkout, PAIRS to 10, SEED to 1; WORKLOAD may
# list several rows, space-separated, or be "all" — the no-regression sweep).
PAIRS ?= 10
SEED ?= 1
CHANGE ?= .
bench-pairs:
	$(PYTHON) scripts/bench_pairs.py $(PARENT) $(CHANGE) \
	    $(addprefix --workload ,$(WORKLOAD)) --pairs $(PAIRS) --seed $(SEED)

# On-runner scale-feature budgets (telemetry overhead, service soak).
scale-gate:
	PYTHONPATH=src $(PYTHON) scripts/scale_gate.py

examples:
	for script in examples/*.py; do echo "== $$script"; $(PYTHON) $$script; done

clean:
	rm -rf .pytest_cache .hypothesis benchmarks/results \
	       $$(find . -name __pycache__ -type d)
