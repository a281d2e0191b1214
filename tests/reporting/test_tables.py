"""Integration tests for table/figure regeneration.

Full-scale regeneration lives in the benchmarks; here the sweeps run
through the grid runner on reduced vendor subsets / sizes, are assembled
by the ``*_from_results`` functions, and are checked for structural
correctness against the paper's membership and shape.
"""

import pytest

from repro.core.feasibility import survey
from repro.core.obr import obr_grid
from repro.core.practical import flood_grid
from repro.core.sbr import sbr_grid
from repro.reporting.figures import Fig6Series, fig6_series_from_results
from repro.reporting.paper_values import PAPER_TABLE5
from repro.reporting.tables import (
    table1_rows,
    table2_rows,
    table3_rows,
    table4_rows_from_results,
    table5_rows_from_results,
)
from repro.runner import GridRunner

MB = 1 << 20


def _run(grid):
    """One grid run's values by cell key; any failed cell raises."""
    result = GridRunner(workers=1).run(grid)
    result.values()
    return result.value_by_key()


@pytest.fixture(scope="module")
def small_survey():
    return survey(
        vendors=["akamai", "azure", "cdn77", "cloudflare", "tencent"],
        file_size=16 * 1024,
    )


class TestTable1:
    def test_rows_from_survey(self, small_survey):
        rows = table1_rows(feasibility=small_survey)
        assert [r.vendor for r in rows] == sorted(small_survey)
        akamai = next(r for r in rows if r.vendor == "akamai")
        assert akamai.vulnerable
        assert akamai.display_name == "Akamai"
        assert ("bytes=first-last", "deletion") in akamai.vulnerable_formats


class TestTable2:
    def test_frontends_only(self, small_survey):
        rows = table2_rows(feasibility=small_survey)
        names = {r.vendor for r in rows}
        assert names == {"cdn77", "cloudflare"}
        cdn77 = next(r for r in rows if r.vendor == "cdn77")
        assert cdn77.lazy_formats


class TestTable3:
    def test_backends_only(self, small_survey):
        rows = table3_rows(feasibility=small_survey)
        names = {r.vendor for r in rows}
        assert names == {"akamai", "azure"}
        azure = next(r for r in rows if r.vendor == "azure")
        assert azure.part_limit == 64
        akamai = next(r for r in rows if r.vendor == "akamai")
        assert akamai.part_limit is None


class TestTable4:
    def test_row_structure(self):
        vendors, sizes = ["akamai", "keycdn"], (1 * MB, 2 * MB)
        rows = table4_rows_from_results(_run(sbr_grid(vendors, sizes)), vendors, sizes)
        assert len(rows) == 2
        akamai = rows[0]
        assert akamai.factors[2 * MB] > akamai.factors[1 * MB]
        assert akamai.client_traffic[1 * MB] < 1500
        assert akamai.origin_traffic[1 * MB] > 1 * MB
        keycdn = rows[1]
        assert keycdn.exploited_cases == ("bytes=0-0", "bytes=0-0")


class TestTable5:
    def test_single_combination(self):
        combos = [("cdn77", "azure")]
        rows = table5_rows_from_results(_run(obr_grid(combos)), combos)
        assert len(rows) == 1
        row = rows[0]
        assert row.max_n == 64
        paper = PAPER_TABLE5[("cdn77", "azure")]
        assert row.factor == pytest.approx(paper[3], rel=0.25)
        assert row.exploited_case_prefix.startswith("bytes=-1024,0-")


class TestFig6:
    def test_series_structure(self):
        vendors, sizes = ["gcore"], (1 * MB, 2 * MB, 3 * MB)
        series = fig6_series_from_results(_run(sbr_grid(vendors, sizes)), vendors, sizes)
        assert len(series) == 1
        curve = series[0]
        assert isinstance(curve, Fig6Series)
        assert len(curve.factors) == 3
        # Fig 6a: monotone growth for a plain-deletion vendor.
        assert curve.factors[0] < curve.factors[1] < curve.factors[2]
        # Fig 6b: flat, small client traffic.
        assert max(curve.client_traffic) <= 1500
        # Fig 6c: origin traffic tracks the resource size.
        assert curve.origin_traffic[2] == pytest.approx(3 * MB, rel=0.01)


class TestFig7:
    def test_series_structure(self):
        results = GridRunner(workers=1).run(flood_grid(ms=(2, 13))).values()
        assert [r.m for r in results] == [2, 13]
        assert not results[0].saturated
        assert results[1].saturated
