"""Fast path for grid cells (planner layer).

:class:`FastPathPlanner` sits between :func:`repro.runner.runall.run_all`
and the :class:`~repro.runner.executor.GridRunner`: it walks a grid
**before** execution and answers every measurement cell in-process
through the engines in :mod:`repro.core.vectorized`, leaving the rest
(flood bandwidth sims, faulted cells, the cells of a family with no
fast engine, and any cell the engines refuse) to the runner, which
runs and journals them.

Every answer is the wire-level simulation's own result, so it is
exact by construction (pinned cell by cell against the grid runner by
``tests/analysis/test_fastpath_equivalence.py``).  An engine refuses
(:class:`~repro.core.vectorized.ExactModelError`) a cell the
simulation would reject, and the cell falls back to the runner, which
fails it with the simulation's own error.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.analysis.families import FAMILIES
from repro.core import vectorized
from repro.core.vectorized import ExactModelError
from repro.runner.executor import CellOutcome
from repro.runner.grid import ExperimentCell, ExperimentGrid

@dataclass(frozen=True)
class FastPathStats:
    """What the planner did to one grid, for reporting and CI gating."""

    #: Cells answered by the planner.
    answered: int = 0
    #: Eligible cells the engines refused (fell back to simulation).
    refused: int = 0
    #: Cells whose experiment kind is outside the fast path's scope.
    ineligible: int = 0
    #: Always 0 (nothing calibrates); kept because the e2e benchmark reads it.
    calibration_runs: int = 0

    @property
    def total(self) -> int:
        return self.answered + self.refused + self.ineligible

    @property
    def hit_rate(self) -> float:
        """Fast-answered share of the whole grid (0.0 for an empty grid)."""
        if self.total <= 0:
            return 0.0
        return self.answered / self.total


@dataclass(frozen=True)
class FastPathPlan:
    """One planned grid: fast outcomes plus the residual to simulate."""

    #: Fast answers, keyed by index in the *original* grid.
    outcomes: Dict[int, CellOutcome] = field(default_factory=dict)
    #: The cells that still need the simulation runner, original order.
    residual: "ExperimentGrid" = field(
        default_factory=lambda: ExperimentGrid("residual")
    )
    stats: FastPathStats = field(default_factory=FastPathStats)


class FastPathPlanner:
    """Answers exact measurement cells before the grid runs."""

    def __init__(self) -> None:
        #: One engine per family that has one, by experiment name; a
        #: cell's key and params are the arguments of its ``measure``.
        self.engines: Dict[str, Any] = {}
        for family in FAMILIES:
            if family.fast_engine is not None:
                self.engines[family.name] = getattr(vectorized, family.fast_engine)()
        self._answered = 0
        self._refused = 0
        self._ineligible = 0

    def eligible(self, cell: ExperimentCell) -> bool:
        """Does this cell's experiment kind have a fast engine?"""
        return cell.experiment in self.engines

    def answer(self, cell: ExperimentCell) -> Optional[Any]:
        """The exact value for ``cell``, or ``None`` to simulate.

        ``None`` covers both ineligible experiment kinds and engine
        refusals; the caller cannot tell them apart here — use
        :meth:`plan` for counted statistics.
        """
        if not self.eligible(cell):
            return None
        try:
            return self.engines[cell.experiment].measure(*cell.key, **cell.kwargs())
        except ExactModelError:
            return None

    def plan(self, grid: ExperimentGrid) -> FastPathPlan:
        """Partition ``grid`` into fast outcomes and a residual grid.

        Fast outcomes carry the original grid indices, so merging them
        back with the residual's (re-indexed) outcomes reproduces the
        exact outcome tuple a sim-only run would produce.
        """
        outcomes: Dict[int, CellOutcome] = {}
        residual = ExperimentGrid(grid.name)
        answered = refused = ineligible = 0
        for index, cell in enumerate(grid.cells):
            if not self.eligible(cell):
                ineligible += 1
                residual.add(cell)
                continue
            started = time.perf_counter()
            value = self.answer(cell)
            if value is None:
                refused += 1
                residual.add(cell)
                continue
            answered += 1
            outcomes[index] = CellOutcome(
                cell=cell,
                index=index,
                value=value,
                duration_s=time.perf_counter() - started,
            )
        self._answered += answered
        self._refused += refused
        self._ineligible += ineligible
        return FastPathPlan(outcomes=outcomes, residual=residual, stats=self.stats)

    @property
    def stats(self) -> FastPathStats:
        """Cumulative statistics over everything planned."""
        return FastPathStats(
            answered=self._answered,
            refused=self._refused,
            ineligible=self._ineligible,
        )
