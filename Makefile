# Convenience targets for the RangeAmp reproduction.

PYTHON ?= python

.PHONY: install test bench report examples clean

install:
	pip install -e . --no-build-isolation || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

report:
	$(PYTHON) -m repro report report/

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/feasibility_survey.py
	$(PYTHON) examples/mitigation_eval.py

clean:
	rm -rf .pytest_cache .hypothesis .benchmarks benchmarks/output report
	find . -name __pycache__ -type d -exec rm -rf {} +
