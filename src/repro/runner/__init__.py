"""``repro.runner`` — parallel experiment execution engine.

The paper's evaluation grids (Table IV's 13 vendors x 3 sizes, Fig 6's
13 x 25 sweep, Table V's 11 cascades, Fig 7's m = 1..15 floods) are
embarrassingly parallel: every cell is an independent, deterministic
measurement.  This package turns those sweeps into data
(:class:`~repro.runner.grid.ExperimentGrid`), executes them over a
process pool with a serial fallback
(:class:`~repro.runner.executor.GridRunner`), and guarantees the
parallel result is identical to the serial one: results are keyed and
merged in grid order regardless of completion order, and per-cell
failures are captured (type + message) instead of killing the sweep.

* :mod:`repro.runner.grid` — cell/grid spec model;
* :mod:`repro.runner.executor` — serial/pool execution, deterministic
  merging, failure + timing capture, per-cell retries, and worker-crash
  containment;
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
