"""Grid runs equal direct attack runs, in grid order.

Outcomes come back in grid order, cell functions are pure, and timing
is excluded from comparison — so the Table IV and Table V grids compare
equal to the attacks run one by one, and a raising cell leaves its
neighbours' outcomes as they would be without it.
"""

from __future__ import annotations

import pytest

from repro.cdn.vendors import all_vendor_names
from repro.core.obr import ObrAttack
from repro.core.sbr import SbrAttack, sbr_grid
from repro.families.obr import FAMILY as OBR
from repro.families.sbr import FAMILY as SBR
from repro.families.sbr import grid_cell as sbr_cell
from repro.runner.executor import CellFailure, GridRunner, RunnerCellError
from repro.runner.grid import ExperimentGrid
from repro.runner.memo import clear_all_memos

MB = 1 << 20


@pytest.fixture(autouse=True)
def _fresh_memos():
    """Memo state must never be able to mask a determinism bug."""
    clear_all_memos()
    yield
    clear_all_memos()


def test_equivalence_holds_when_a_cell_raises():
    healthy = [sbr_cell("akamai", 1 * MB), sbr_cell("fastly", 1 * MB)]
    grid = ExperimentGrid(
        "with-failure",
        [healthy[0], sbr_cell("nonexistent-vendor", 1 * MB), healthy[1]],
    )
    result = GridRunner().run(grid)
    clear_all_memos()
    reference = GridRunner().run(ExperimentGrid("healthy", healthy))

    # Outcomes come back in grid order, and the failing cell changes
    # none of its neighbours' values.
    assert [o.cell for o in result] == list(grid.cells)
    assert [o.index for o in result] == [0, 1, 2]
    assert [o.ok for o in result] == [True, False, True]
    assert [result.outcomes[0].value, result.outcomes[2].value] == [
        o.value for o in reference
    ]
    # The failing cell is captured, not fatal.
    failure = result.outcomes[1].failure
    assert isinstance(failure, CellFailure)
    assert failure.exception_type == "UnknownVendorError"
    assert "nonexistent-vendor" in failure.message
    # Unwrapping the failed cell raises with the cell's label.
    with pytest.raises(RunnerCellError, match="nonexistent-vendor"):
        result.values()
    # Healthy cells still unwrap.
    assert result.outcomes[0].unwrap().vendor == "akamai"


def test_table4_rows_identical_to_direct_attack_runs():
    """The reporting surface: tables from a grid run == tables from
    direct, in-process attack runs."""
    sweep = SBR.sweep(all_vendor_names(), True)
    result = GridRunner().run(ExperimentGrid("sbr", sweep.cells))
    result.values()
    direct = {
        (name, size): SbrAttack(name, resource_size=size).run()
        for name, size in (cell.key for cell in sweep.cells)
    }
    assert result.value_by_key() == direct
    assert sweep.tables(result.value_by_key()) == sweep.tables(direct)


def test_table5_rows_identical_to_direct_attack_runs():
    sweep = OBR.sweep(all_vendor_names(), True)
    result = GridRunner().run(ExperimentGrid("obr", sweep.cells))
    result.values()
    direct = {
        (fcdn, bcdn): ObrAttack(fcdn, bcdn).run()
        for fcdn, bcdn in (cell.key for cell in sweep.cells)
    }
    assert result.value_by_key() == direct
    assert sweep.tables(result.value_by_key()) == sweep.tables(direct)


def test_grid_dedups_overlapping_cells():
    grid = sbr_grid(vendors=["akamai"], sizes=(1 * MB, 1 * MB, 2 * MB))
    assert len(grid) == 2
