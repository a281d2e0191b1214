"""Integration tests for table/figure regeneration.

Full-scale regeneration lives in the benchmarks; here the quick family
sweeps run through the grid runner on reduced vendor subsets, are laid
out by the sweeps' own tables, and are checked for structural
correctness against the paper's membership and shape.
"""

import pytest

from repro.core.feasibility import survey
from repro.core.obr import ObrAttack
from repro.core.practical import flood_grid
from repro.families.obr import FAMILY as OBR
from repro.families.sbr import FAMILY as SBR
from repro.reporting.paper_values import PAPER_TABLE5
from repro.reporting.tables import table1_rows, table2_rows, table3_rows
from repro.runner.executor import GridRunner
from repro.runner.grid import ExperimentGrid

MB = 1 << 20


def _run(grid):
    """One grid run's values by cell key; any failed cell raises."""
    result = GridRunner().run(grid)
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


def _sweep_values(sweep):
    return _run(ExperimentGrid("sweep", sweep.cells))


class TestTable4:
    def test_row_structure(self):
        sweep = SBR.sweep(["akamai", "keycdn"], True)
        values = _sweep_values(sweep)
        stem, _, headers, rows = sweep.tables(values)[0]
        assert stem == "table4_sbr_factors"
        assert headers == ["CDN", "Exploited Case", "1MB (paper)"]
        assert [row[0] for row in rows] == ["Akamai", "KeyCDN"]
        assert rows[1][1] == "bytes=0-0 & bytes=0-0"
        akamai = values[("akamai", 2 * MB)]
        assert akamai.amplification > values[("akamai", 1 * MB)].amplification
        assert values[("akamai", 1 * MB)].client_traffic < 1500
        assert values[("akamai", 1 * MB)].origin_traffic > 1 * MB


class TestTable5:
    def test_single_combination(self):
        sweep = OBR.sweep([], True)
        values = _sweep_values(sweep)
        (stem, _, _, rows), = sweep.tables(values)
        assert stem == "table5_obr_factors"
        row = next(row for row in rows if row[:2] == ["cdn77", "azure"])
        assert row[2] == "64 (64)"
        paper = PAPER_TABLE5[("cdn77", "azure")]
        assert values[("cdn77", "azure")].amplification == pytest.approx(
            paper[3], rel=0.25
        )
        assert ObrAttack("cdn77", "azure").range_value(3).startswith("bytes=-1024,0-")


class TestFig6:
    def test_series_structure(self):
        sweep = SBR.sweep(["gcore"], True)
        values = _sweep_values(sweep)
        stem, _, headers, rows = sweep.tables(values)[1]
        assert stem == "fig6a_amplification_factors"
        assert headers == ["size", "gcore"]
        assert [row[0] for row in rows] == ["1MB", "2MB", "3MB"]
        curve = [values[("gcore", m * MB)] for m in (1, 2, 3)]
        # Fig 6a: monotone growth for a plain-deletion vendor.
        assert curve[0].amplification < curve[1].amplification < curve[2].amplification
        # Fig 6b: flat, small client traffic.
        assert max(r.client_traffic for r in curve) <= 1500
        # Fig 6c: origin traffic tracks the resource size.
        assert curve[2].origin_traffic == pytest.approx(3 * MB, rel=0.01)


class TestFig7:
    def test_series_structure(self):
        results = GridRunner().run(flood_grid(ms=(2, 13))).values()
        assert [r.m for r in results] == [2, 13]
        assert not results[0].saturated
        assert results[1].saturated
