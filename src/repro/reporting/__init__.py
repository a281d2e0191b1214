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

from repro.reporting.figures import Fig6Series, fig6_series_from_results
from repro.reporting.render import Table, render_table, write_tables
from repro.reporting.tables import (
    Table1Row,
    Table2Row,
    Table3Row,
    Table4Row,
    Table5Row,
    survey_tables,
    table1_rows,
    table2_rows,
    table3_rows,
    table4_rows_from_results,
    table5_rows_from_results,
)

__all__ = [
    "Fig6Series",
    "Table",
    "Table1Row",
    "Table2Row",
    "Table3Row",
    "Table4Row",
    "Table5Row",
    "fig6_series_from_results",
    "render_table",
    "survey_tables",
    "table1_rows",
    "table2_rows",
    "table3_rows",
    "table4_rows_from_results",
    "table5_rows_from_results",
    "write_tables",
]
