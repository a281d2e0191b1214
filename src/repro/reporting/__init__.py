"""Regeneration of the paper's tables and figures.

* :mod:`repro.reporting.tables` — Tables I–III from a feasibility survey
  (:func:`survey_tables` lays them out).
* :mod:`repro.reporting.render` — plain-text and markdown table
  rendering, and :func:`write_tables`, the one artifact writer.
* :mod:`repro.reporting.paper_values` — the numbers the paper printed,
  for side-by-side comparison and tolerance checks.

The measured tables are built from grid values by whoever owns the
grid: each attack family's sweep (:mod:`repro.families`) lays out its
own (Tables IV–V, Fig 6a, CCFC), and :mod:`repro.runner.runall` the
faulted Table VI and Fig 7.
"""

from __future__ import annotations
