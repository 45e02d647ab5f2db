# Convenience targets for the reproduction workflow.

.PHONY: install test bench figures experiments clean

install:
	pip install -e .[dev]

test:
	pytest tests/

# Performance benchmark: the four bench/ workloads, timed and
# digest-checked (see bench/README.md).
bench:
	python3 bench/run.py

figures:
	python -m repro all-figures --seeds 0

experiments:
	python scripts/collect_experiments.py

clean:
	rm -rf build dist *.egg-info .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
