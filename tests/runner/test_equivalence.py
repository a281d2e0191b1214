"""Serial vs parallel execution produces identical results.

This is the runner's core guarantee: outcomes are keyed and merged in
grid order regardless of completion order, cell functions are pure, and
timing is excluded from comparison — so a pool run of the Table IV and
Table V grids must compare (and repr) equal to a serial run, including
when a cell raises.
"""

from __future__ import annotations

import pytest

from repro.cdn.vendors import all_vendor_names
from repro.core.obr import ObrAttack, obr_grid
from repro.core.practical import flood_grid
from repro.core.sbr import SbrAttack, sbr_grid
from repro.families.obr import FAMILY as OBR
from repro.families.sbr import FAMILY as SBR
from repro.families.sbr import grid_cell as sbr_cell
from repro.runner.executor import CellFailure, GridRunner, RunnerCellError
from repro.runner.grid import ExperimentGrid
from repro.runner.memo import clear_all_memos

MB = 1 << 20

TABLE4_SIZES = (1 * MB, 10 * MB, 25 * MB)


@pytest.fixture(autouse=True)
def _fresh_memos():
    """Memo state must never be able to mask a determinism bug."""
    clear_all_memos()
    yield
    clear_all_memos()


def test_table4_grid_serial_and_parallel_identical():
    grid = sbr_grid(sizes=TABLE4_SIZES)
    serial = GridRunner(workers=1).run(grid)
    parallel = GridRunner(workers=4).run(grid)
    assert serial == parallel
    assert repr(serial) == repr(parallel)
    assert [o.value for o in serial] == [o.value for o in parallel]
    assert all(o.ok for o in parallel)
    assert parallel.workers > serial.workers


def test_table5_grid_serial_and_parallel_identical():
    grid = obr_grid()
    assert len(grid) == 11
    serial = GridRunner(workers=1).run(grid)
    parallel = GridRunner(workers=4).run(grid)
    assert serial == parallel
    assert repr(serial) == repr(parallel)
    # The merged order is grid order, not completion order.
    assert [o.cell for o in parallel] == list(grid.cells)
    assert [o.index for o in parallel] == list(range(len(grid)))


def test_flood_grid_serial_and_parallel_identical():
    grid = flood_grid(ms=(1, 2, 12))
    serial = GridRunner(workers=1).run(grid)
    parallel = GridRunner(workers=3).run(grid)
    assert serial == parallel
    assert [o.value for o in serial] == [o.value for o in parallel]


def test_equivalence_holds_when_a_cell_raises():
    grid = ExperimentGrid(
        "with-failure",
        [
            sbr_cell("akamai", 1 * MB),
            sbr_cell("nonexistent-vendor", 1 * MB),
            sbr_cell("fastly", 1 * MB),
        ],
    )
    serial = GridRunner(workers=1).run(grid)
    parallel = GridRunner(workers=3).run(grid)

    assert serial == parallel
    # The failing cell is captured, not fatal; its neighbors complete.
    assert [o.ok for o in parallel] == [True, False, True]
    failure = parallel.outcomes[1].failure
    assert isinstance(failure, CellFailure)
    assert failure.exception_type == "ConfigurationError"
    assert "nonexistent-vendor" in failure.message
    # Unwrapping the failed cell raises with the cell's label.
    with pytest.raises(RunnerCellError, match="nonexistent-vendor"):
        parallel.values()
    # Healthy cells still unwrap.
    assert parallel.outcomes[0].unwrap().vendor == "akamai"


def test_table4_rows_parallel_identical_to_legacy_serial():
    """The reporting surface: tables from a pool run == tables from
    direct, in-process attack runs (the serial reference, kept here)."""
    sweep = SBR.sweep(all_vendor_names(), True)
    result = GridRunner(workers=4).run(ExperimentGrid("sbr", sweep.cells))
    result.values()
    serial = {
        (name, size): SbrAttack(name, resource_size=size).run()
        for name, size in (cell.key for cell in sweep.cells)
    }
    assert result.value_by_key() == serial
    assert sweep.tables(result.value_by_key()) == sweep.tables(serial)


def test_table5_rows_parallel_identical_to_legacy_serial():
    sweep = OBR.sweep(all_vendor_names(), True)
    result = GridRunner(workers=4).run(ExperimentGrid("obr", sweep.cells))
    result.values()
    serial = {
        (fcdn, bcdn): ObrAttack(fcdn, bcdn).run()
        for fcdn, bcdn in (cell.key for cell in sweep.cells)
    }
    assert result.value_by_key() == serial
    assert sweep.tables(result.value_by_key()) == sweep.tables(serial)


def test_serial_env_var_forces_serial_execution(monkeypatch):
    monkeypatch.setenv("REPRO_RUNNER_WORKERS", "1")
    runner = GridRunner()
    assert runner.workers == 1
    grid = sbr_grid(vendors=["akamai"], sizes=(1 * MB,))
    result = runner.run(grid)
    assert result.workers == 1
    assert result.outcomes[0].ok


def test_grid_dedups_overlapping_cells():
    grid = sbr_grid(vendors=["akamai"], sizes=(1 * MB, 1 * MB, 2 * MB))
    assert len(grid) == 2
