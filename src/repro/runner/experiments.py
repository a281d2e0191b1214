"""Cell functions: how each experiment kind executes one grid cell.

Cell functions live at module top level and are resolved **by name**
through a registry, so an :class:`~repro.runner.grid.ExperimentCell`
stays picklable and a worker process (fork or spawn) can execute it
after merely importing this module.

Five kinds cover the paper's Tables IV–V, Figs 6–7, the faulted
re-amplification table, and the compression-conversion follow-up:

* ``sbr`` — key ``(vendor, resource_size)``, runs one SBR measurement
  (memoized through :func:`repro.runner.memo.measure_sbr`);
* ``obr`` — key ``(fcdn, bcdn)``, searches max n and measures one OBR
  cascade;
* ``ccfc`` — key ``(vendor, resource_size)``, one compression-conversion
  measurement (memoized through :func:`repro.runner.memo.measure_ccfc`);
* ``flood`` — key ``(vendor, m)``, one Fig 7 bandwidth simulation;
* ``sbr-faults`` — key ``(vendor, resource_size, seed)``, one SBR
  measurement under a seeded fault plan with vendor retries engaged.
"""

from __future__ import annotations

from typing import Any, Callable, Dict

from repro.core.obr import ObrAttack
from repro.core.practical import ORIGIN_UPLINK_MBPS, BandwidthAttackSimulation
from repro.errors import ConfigurationError
from repro.runner.grid import ExperimentCell
from repro.runner.memo import measure_ccfc, measure_sbr

CellFunction = Callable[[ExperimentCell], Any]

_REGISTRY: Dict[str, CellFunction] = {}


def register(name: str, fn: CellFunction) -> None:
    """Register a cell function under ``name`` (last registration wins)."""
    _REGISTRY[name] = fn


def cell_function(name: str) -> CellFunction:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"no cell function registered for experiment {name!r} "
            f"(known: {sorted(_REGISTRY)})"
        )


def execute_cell(cell: ExperimentCell) -> Any:
    """Run one cell and return its result value.

    This is the function worker processes invoke; everything it needs is
    reachable from the cell itself.
    """
    return cell_function(cell.experiment)(cell)


# ---------------------------------------------------------------------------
# Cell builders + cell functions per experiment kind
# ---------------------------------------------------------------------------

def sbr_cell(vendor: str, resource_size: int, rounds: int = 1) -> ExperimentCell:
    """Table IV / Fig 6 cell: one vendor at one resource size."""
    return ExperimentCell.make("sbr", (vendor, resource_size), rounds=rounds)


def _run_sbr_cell(cell: ExperimentCell) -> Any:
    vendor, resource_size = cell.key
    rounds = cell.kwargs().get("rounds", 1)
    return measure_sbr(vendor, resource_size, rounds)


def ccfc_cell(vendor: str, resource_size: int, rounds: int = 1) -> ExperimentCell:
    """Compression-conversion cell: one vendor at one resource size."""
    return ExperimentCell.make("ccfc", (vendor, resource_size), rounds=rounds)


def _run_ccfc_cell(cell: ExperimentCell) -> Any:
    vendor, resource_size = cell.key
    rounds = cell.kwargs().get("rounds", 1)
    return measure_ccfc(vendor, resource_size, rounds)


def obr_cell(
    fcdn: str,
    bcdn: str,
    resource_size: int = 1024,
    overlap_count: int = 0,
) -> ExperimentCell:
    """Table V cell: one FCDN x BCDN cascade.

    ``overlap_count=0`` means "search the maximum n" (the Table V
    methodology); a positive count skips the search.
    """
    return ExperimentCell.make(
        "obr", (fcdn, bcdn), resource_size=resource_size, overlap_count=overlap_count
    )


def _run_obr_cell(cell: ExperimentCell) -> Any:
    fcdn, bcdn = cell.key
    params = cell.kwargs()
    attack = ObrAttack(fcdn, bcdn, resource_size=params.get("resource_size", 1024))
    overlap_count = params.get("overlap_count", 0)
    return attack.run(overlap_count=overlap_count if overlap_count else None)


def flood_cell(
    vendor: str,
    m: int,
    resource_size: int = 10 * (1 << 20),
    per_request: Any = None,
) -> ExperimentCell:
    """Fig 7 cell: one flood intensity ``m`` through one vendor, at the
    paper's origin uplink (recorded in the cell).

    ``per_request`` optionally pins the (origin_bytes, client_bytes)
    per-request traffic so the cell skips the SBR probe — ``run_all``
    measures it once and shares it across all 15 cells.
    """
    return ExperimentCell.make(
        "flood",
        (vendor, m),
        resource_size=resource_size,
        origin_uplink_mbps=ORIGIN_UPLINK_MBPS,
        per_request=tuple(per_request) if per_request is not None else None,
    )


def _run_flood_cell(cell: ExperimentCell) -> Any:
    vendor, m = cell.key
    params = cell.kwargs()
    simulation = BandwidthAttackSimulation(
        vendor=vendor,
        resource_size=params.get("resource_size", 10 * (1 << 20)),
        origin_uplink_mbps=params.get("origin_uplink_mbps", ORIGIN_UPLINK_MBPS),
        per_request=params.get("per_request"),
    )
    return simulation.run(m)


def faulted_sbr_cell(
    vendor: str, resource_size: int, seed: int, rounds: int = 1
) -> ExperimentCell:
    """Faulted-SBR cell: one vendor/size under one fault seed."""
    return ExperimentCell.make(
        "sbr-faults", (vendor, resource_size, seed), rounds=rounds
    )


def _run_faulted_sbr_cell(cell: ExperimentCell) -> Any:
    from repro.faults.experiment import measure_sbr_under_faults

    vendor, resource_size, seed = cell.key
    rounds = cell.kwargs().get("rounds", 1)
    return measure_sbr_under_faults(vendor, resource_size, seed=seed, rounds=rounds)


register("sbr", _run_sbr_cell)
register("obr", _run_obr_cell)
register("ccfc", _run_ccfc_cell)
register("flood", _run_flood_cell)
register("sbr-faults", _run_faulted_sbr_cell)
