"""Retry-induced re-amplification: SBR measured under a fault plan."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional, Tuple

from repro.core.sbr import SbrAttack

if TYPE_CHECKING:
    from repro.runner.grid import ExperimentGrid
from repro.faults.plan import FaultInjector, FaultPlan, use_faults
from repro.faults.retry import retry_policy_for

DEFAULT_FAULT_SEED = 20200605  # the paper's DSN 2020 presentation date
DEFAULT_FAULT_ROUNDS = 6


@dataclass(frozen=True)
class FaultedSbrResult:
    """One vendor's SBR traffic under faults, next to its clean baseline."""

    vendor: str
    resource_size: int
    seed: int
    rounds: int
    client_traffic: int
    origin_traffic: int
    amplification: float
    clean_client_traffic: int
    clean_origin_traffic: int
    clean_amplification: float
    statuses: Tuple[int, ...]
    faults_injected: Tuple[Tuple[str, int], ...]
    retries: int
    backoff_s: float
    fetches: int
    exhausted_fetches: int
    max_attempts: int

    @property
    def total_faults(self) -> int:
        return sum(count for _, count in self.faults_injected)

    @property
    def reamplification(self) -> float:
        """Origin bytes under faults over clean origin bytes (>1 means
        retries re-shipped fetch windows)."""
        if self.clean_origin_traffic == 0:
            return 0.0
        return self.origin_traffic / self.clean_origin_traffic


def measure_sbr_under_faults(
    vendor: str,
    resource_size: int,
    seed: int = DEFAULT_FAULT_SEED,
    rounds: int = DEFAULT_FAULT_ROUNDS,
    plan: Optional[FaultPlan] = None,
) -> FaultedSbrResult:
    """Run the SBR attack with a fault injector armed and compare to clean.

    The clean baseline is measured *outside* the fault context (and via
    the memoized single-round path, scaled by ``rounds``) so the two
    traffic totals are directly comparable.
    """
    # Lazy import: the family module loads the analysis layer.
    from repro.families.sbr import measure_sbr

    clean = measure_sbr(vendor, resource_size)
    injector = FaultInjector(plan if plan is not None else FaultPlan.default(seed))
    with use_faults(injector):
        faulted = SbrAttack(vendor, resource_size).run(rounds=rounds)
    stats = injector.stats
    return FaultedSbrResult(
        vendor=vendor,
        resource_size=resource_size,
        seed=seed,
        rounds=rounds,
        client_traffic=faulted.client_traffic,
        origin_traffic=faulted.origin_traffic,
        amplification=faulted.amplification,
        clean_client_traffic=clean.client_traffic * rounds,
        clean_origin_traffic=clean.origin_traffic * rounds,
        clean_amplification=clean.amplification,
        statuses=faulted.statuses,
        faults_injected=tuple(sorted(stats.injected.items())),
        retries=stats.retries,
        backoff_s=stats.backoff_s,
        fetches=stats.fetches,
        exhausted_fetches=stats.exhausted_fetches,
        max_attempts=retry_policy_for(vendor).max_attempts,
    )


def faulted_sbr_grid(
    vendors: Iterable[str],
    sizes: Iterable[int],
    seed: int = DEFAULT_FAULT_SEED,
    rounds: int = DEFAULT_FAULT_ROUNDS,
) -> "ExperimentGrid":
    """An :class:`ExperimentGrid` of faulted-SBR cells (vendor × size)."""
    from repro.runner.experiments import faulted_sbr_cell
    from repro.runner.grid import ExperimentGrid

    grid = ExperimentGrid(name="sbr-faults")
    for vendor in vendors:
        for size in sizes:
            grid.add(faulted_sbr_cell(vendor, size, seed=seed, rounds=rounds))
    return grid
