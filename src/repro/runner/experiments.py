"""Cell functions: how each experiment kind executes one grid cell.

Cell functions are resolved **by name**, so an
:class:`~repro.runner.grid.ExperimentCell` stays plain data.  An attack
family's cells (``sbr``, ``obr``, ``ccfc``, ...) run its record's
:attr:`~repro.families.base.AttackFamily.measure` with the cell's key
and params; the other kinds are registered here:

* ``flood`` — key ``(vendor, m)``, one Fig 7 bandwidth simulation;
* ``sbr-faults`` — key ``(vendor, resource_size, seed)``, one SBR
  measurement under a seeded fault plan with vendor retries engaged.
"""

from __future__ import annotations

from typing import Any, Callable, Dict

from repro.core.practical import ORIGIN_UPLINK_MBPS, BandwidthAttackSimulation
from repro.errors import ConfigurationError
from repro.runner.grid import ExperimentCell

CellFunction = Callable[[ExperimentCell], Any]

_REGISTRY: Dict[str, CellFunction] = {}


def register(name: str, fn: CellFunction) -> None:
    """Register a cell function under ``name`` (last registration wins)."""
    _REGISTRY[name] = fn


def execute_cell(cell: ExperimentCell) -> Any:
    """Run one cell and return its result value; everything it needs
    is reachable from the cell itself."""
    function = _REGISTRY.get(cell.experiment)
    if function is not None:
        return function(cell)
    # Loaded on first use: a family's grid builder has loaded its module.
    from repro.analysis.families import FAMILIES_BY_NAME

    family = FAMILIES_BY_NAME.get(cell.experiment)
    if family is None:
        raise ConfigurationError(
            f"no cell function registered for experiment {cell.experiment!r} "
            f"(known: {sorted([*_REGISTRY, *FAMILIES_BY_NAME])})"
        )
    return family.measure(*cell.key, **cell.kwargs())


# ---------------------------------------------------------------------------
# Cell builders + cell functions per experiment kind
# ---------------------------------------------------------------------------

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


register("flood", _run_flood_cell)
register("sbr-faults", _run_faulted_sbr_cell)
