"""Regeneration of the paper's tables and figures.

* :mod:`repro.reporting.tables` — Tables I–III from a feasibility survey
  (:func:`survey_tables` lays them out), and the Table IV/V, CCFC and
  Table VI rows assembled from grid results.
* :mod:`repro.reporting.figures` — Fig 6 (SBR curves) assembled from
  grid results.
* :mod:`repro.reporting.render` — plain-text and markdown table
  rendering, and :func:`write_tables`, the one artifact writer.
* :mod:`repro.reporting.paper_values` — the numbers the paper printed,
  for side-by-side comparison and tolerance checks.

The layouts of Tables IV–VI and Figs 6a/7 live beside the grid that
produces them, in :func:`repro.runner.runall.report_tables`.
"""

from __future__ import annotations
