"""``repro.runner`` — experiment execution engine.

The paper's evaluation grids (Table IV's 13 vendors x 3 sizes, Fig 6's
13 x 25 sweep, Table V's 11 cascades, Fig 7's m = 1..15 floods) are
made of independent, deterministic measurements.  This package turns
those sweeps into data (:class:`~repro.runner.grid.ExperimentGrid`) and
runs them in grid order (:class:`~repro.runner.executor.GridRunner`):
results come back in grid order, and per-cell failures are captured
(type + message) instead of killing the sweep.

* :mod:`repro.runner.grid` — cell/grid spec model;
* :mod:`repro.runner.executor` — serial execution in grid order,
  failure + timing capture;
* :mod:`repro.runner.checkpoint` — crash-safe JSONL journaling so a
  killed run resumes from its completed cells;
* :mod:`repro.runner.memo` — the named memo tables of the hot paths
  (shared SBR measurements across overlapping grids);
* :mod:`repro.runner.experiments` — cell dispatch by experiment name:
  each attack family's ``measure``, plus the ``flood`` / ``sbr-faults``
  cell functions;
* :mod:`repro.runner.runall` — one-shot regeneration of Tables IV–V
  and Figs 6–7 (plus the faulted Table VI) through a single combined
  grid (the CLI's ``run-all``).
"""

from __future__ import annotations
