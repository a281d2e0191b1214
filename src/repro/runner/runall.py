"""One-shot regeneration of Tables IV–V and Figs 6–7 through the runner.

:func:`run_all` builds a **single combined grid** — every attack
family's sweep (:attr:`~repro.families.base.AttackFamily.sweep`: the
SBR vendor x size sweep serving both Table IV and Fig 6, the Table V
cascades, the CCFC cells), the 15 Fig 7 flood intensities and, when
asked, the faulted Table VI cells — executes it through one
:class:`~repro.runner.executor.GridRunner`, and builds every table
straight from the grid values.  :func:`write_report` writes the
tables.

Determinism: cell functions are pure and outcomes come back in grid
order, so every run of one configuration returns equal objects.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.families import FAMILIES
from repro.analysis.recommend import RecommendationReport
from repro.cdn.vendors import all_vendor_names, profile_class
from repro.core.practical import flood_grid
from repro.errors import ReproError
from repro.faults.experiment import DEFAULT_FAULT_SEED
from repro.obs.profile import CellProfile
from repro.runner.checkpoint import RunCheckpoint
from repro.runner.executor import (
    CellOutcome,
    CellTiming,
    GridResult,
    GridRunner,
    Observer,
)
from repro.runner.fastpath import FastPathPlanner, FastPathStats
from repro.runner.grid import ExperimentGrid

if TYPE_CHECKING:  # pragma: no cover
    from repro.families.base import AttackFamily, Sweep
    from repro.reporting.render import Table
    from repro.runner.grid import Key

MB = 1 << 20

#: Quick-mode trim of the Fig 7 sweep.
QUICK_FIG7_MS = (2, 12, 15)
#: The vendor Fig 7 floods (the paper's Cloudflare setup).
FLOOD_VENDOR = "cloudflare"


@dataclass(frozen=True)
class RunAllReport:
    """Every regenerated artifact plus run telemetry."""

    #: Every table :func:`write_report` renders, in write order: each
    #: family's, then Table VI (faulted runs only) and Fig 7.
    tables: List["Table"]
    #: Measured factor per ledger cell (``sbr:<vendor>:<size>``,
    #: ``obr:<fcdn>:<bcdn>``, ``ccfc:<vendor>:<size>``,
    #: ``faulted:<vendor>:<size>``), for the run ledger.
    factors: Dict[str, float]
    #: Wall seconds for the combined grid run.
    duration_s: float
    #: Sum of per-cell seconds (the serial-equivalent work).
    cell_seconds: float
    cell_count: int
    #: Aggregate per-cell wall-time statistics for the whole run.
    timing: CellTiming = field(default_factory=CellTiming)
    #: Per-experiment timing breakdown (experiment name -> CellTiming).
    timing_by_experiment: Dict[str, CellTiming] = field(default_factory=dict)
    #: Per-experiment cell seconds of the cells the grid runner simulated
    #: (fast-path answers excluded; their cost is the "fastpath" phase).
    simulated_seconds_by_experiment: Dict[str, float] = field(default_factory=dict)
    #: One profile entry per executed grid cell, in grid order.
    cells: Tuple[CellProfile, ...] = ()
    #: Observability harvest — spans and events are empty unless the
    #: run collected.  ``metrics`` is the merged per-cell snapshot of a
    #: collected run; otherwise it holds only the runner's own counters
    #: (the fast-path decisions, ``repro_fastpath_cells_total``), and
    #: is empty when the fast path did not run.
    spans: Tuple[Any, ...] = ()
    events: Tuple[Any, ...] = ()
    metrics: Dict[str, Any] = field(default_factory=dict)
    #: Cells restored from a checkpoint instead of being re-run.
    restored_cells: int = 0
    #: Defense recommendations (Table VII): cheapest sufficient
    #: mitigation per vulnerable finding, statically derived, so the
    #: artifact is deterministic across runs and resumes.
    table7_recommendations: Optional[RecommendationReport] = None
    #: What the fast path did (``None`` for ``--exact`` and
    #: observability runs, which simulate every cell).
    fastpath: Optional[FastPathStats] = None
    #: Wall seconds per run phase ("fastpath", "grid", "static"); feeds
    #: the persisted ``BENCH_runall.json`` trajectory.
    phase_seconds: Dict[str, float] = field(default_factory=dict)


def _fault_sizes(quick: bool) -> Tuple[int, ...]:
    return (1 * MB,) if quick else (1 * MB, 10 * MB)


def _sweeps(
    vendors: Sequence[str], quick: bool
) -> List[Tuple["AttackFamily", "Sweep"]]:
    return [(family, family.sweep(vendors, quick)) for family in FAMILIES]


def _combined_grid(
    sweeps: Sequence[Tuple["AttackFamily", "Sweep"]],
    vendors: Sequence[str],
    quick: bool,
    faults: bool,
    fault_seed: int,
) -> ExperimentGrid:
    grid = ExperimentGrid("run-all")
    # Grid order is the order the run ledger, the profile and the
    # checkpoint list cells in: the faulted cells, Fig 7, then each
    # family's sweep.
    if faults:
        from repro.faults.experiment import faulted_sbr_grid

        grid.extend(
            faulted_sbr_grid(vendors, _fault_sizes(quick), seed=fault_seed).cells
        )
    fig7_ms = QUICK_FIG7_MS if quick else tuple(range(1, 16))
    grid.extend(flood_grid(fig7_ms, vendor=FLOOD_VENDOR).cells)
    for _, sweep in sweeps:
        grid.extend(sweep.cells)
    return grid


def build_run_all_grid(
    vendors: Optional[Sequence[str]] = None,
    quick: bool = False,
) -> ExperimentGrid:
    """The combined grid :func:`run_all` runs (deduped, ordered), without
    the faulted cells."""
    names = list(vendors) if vendors is not None else all_vendor_names()
    return _combined_grid(_sweeps(names, quick), names, quick, False, DEFAULT_FAULT_SEED)


def run_all(
    *,
    workers: int = 1,
    quick: bool = False,
    vendors: Optional[Sequence[str]] = None,
    collect_obs: bool = False,
    observer: Optional[Observer] = None,
    faults: bool = False,
    fault_seed: int = DEFAULT_FAULT_SEED,
    checkpoint_path: Optional[Union[str, Path]] = None,
    resume: bool = False,
    exact: bool = False,
) -> RunAllReport:
    """Regenerate Tables IV–V and Figs 6–7 in one grid run.

    ``quick=True`` trims every sweep for smoke runs (Table IV at 1 MB,
    Fig 6 at three sizes, two Table V cascades, CCFC at 1 MB, three
    Fig 7 points) — the CI path.

    ``workers`` is ignored; only the e2e benchmark harness still passes
    it, and the next change to that harness deletes it.

    ``collect_obs=True`` runs every cell traced and metered: the report
    then carries the merged span/event streams and metrics snapshot
    (``--trace``/``--metrics``).  ``observer`` is forwarded to the
    runner for live progress.

    ``faults=True`` adds the faulted-SBR sweep (Table VI): every vendor
    re-measured under the seeded default fault plan with its retry
    policy engaged.

    ``checkpoint_path`` journals every finished cell; ``resume=True``
    reuses the journal from a previous (killed) run so only the missing
    cells execute.  The resumed report is identical to an uninterrupted
    run's.

    By default the fast path answers the cells of every family with a
    fast engine before the grid runs, by simulating each one in-process;
    OBR max n comes from the memoized static search.  ``exact=True``
    sends every cell through the grid runner instead, where OBR max n
    comes from wire probes — the reference path the fast path is
    differentially tested against.  Observability runs
    (``collect_obs=True``) also bypass the fast path: only the grid
    runner traces and meters each cell.
    """
    names = list(vendors) if vendors is not None else all_vendor_names()
    sweeps = _sweeps(names, quick)
    grid = _combined_grid(sweeps, names, quick, faults, fault_seed)

    if resume and checkpoint_path is None:
        raise ReproError("resume requires a checkpoint path")

    from repro.obs.metrics import MetricsRegistry, use_metrics

    phase_seconds: Dict[str, float] = {}
    planner: Optional[FastPathPlanner] = None
    fast_outcomes: Dict[int, CellOutcome] = {}
    subgrid = grid
    # Runner-level telemetry (fast-path decision counters) records even
    # when per-cell collection is off, so every run record carries it.
    # The planner itself runs unmetered, like ``GridRunner(collect=False)``.
    runner_registry = MetricsRegistry()
    if not exact and not collect_obs:
        planner = FastPathPlanner()
        phase_started = time.perf_counter()
        fast_plan = planner.plan(grid)
        phase_seconds["fastpath"] = time.perf_counter() - phase_started
        fast_outcomes = fast_plan.outcomes
        subgrid = fast_plan.residual
        stats = fast_plan.stats
        for outcome_name, count in (
            ("answered", stats.answered),
            ("refused", stats.refused),
            ("ineligible", stats.ineligible),
        ):
            if count:
                runner_registry.record_fastpath_cells(outcome_name, count)

    # The checkpoint journals only the simulated residual: fast-path
    # answers are cheaper to recompute than to restore, and a resumed
    # run re-plans deterministically, so the merged outcome tuple is
    # identical either way.
    checkpoint: Optional[RunCheckpoint] = None
    restored_cells = 0
    if checkpoint_path is not None:
        path = Path(checkpoint_path)
        if path.exists() and not resume:
            raise ReproError(
                f"checkpoint {path} already exists; resume it or remove it first"
            )
        checkpoint = RunCheckpoint(path)
        restored_cells = len(checkpoint.restore(subgrid.cells))

    runner = GridRunner(collect=collect_obs, observer=observer)
    try:
        result = runner.run(subgrid, checkpoint=checkpoint)
    finally:
        if checkpoint is not None:
            checkpoint.close()
    phase_seconds["grid"] = result.duration_s
    simulated_seconds: Dict[str, float] = {}
    for outcome in result:
        name = outcome.cell.experiment
        simulated_seconds[name] = simulated_seconds.get(name, 0.0) + outcome.duration_s

    if fast_outcomes:
        by_cell = {outcome.cell: outcome for outcome in result}
        result = GridResult(
            grid_name=grid.name,
            outcomes=tuple(
                fast_outcomes[index]
                if index in fast_outcomes
                else replace(by_cell[cell], index=index)
                for index, cell in enumerate(grid.cells)
            ),
            duration_s=sum(phase_seconds.values()),
        )
    result.values()  # any failed cell aborts the regeneration, loudly

    timing = result.cell_seconds()
    by_experiment: Dict[str, List] = {}
    for outcome in result:
        by_experiment.setdefault(outcome.cell.experiment, []).append(outcome)
    # Values keyed by (experiment, key): SBR and CCFC cells share the
    # (vendor, size) key shape, so the experiment keeps them apart.
    values: Dict[str, Dict[Any, Any]] = {
        name: {outcome.cell.key: outcome.value for outcome in outcomes}
        for name, outcomes in by_experiment.items()
    }
    timing_by_experiment = {
        name: CellTiming.from_outcomes(tuple(outcomes))
        for name, outcomes in by_experiment.items()
    }
    cells = tuple(
        CellProfile(
            experiment=outcome.cell.experiment,
            label=outcome.cell.label,
            ok=outcome.ok,
            duration_s=outcome.duration_s,
        )
        for outcome in result
    )

    # Table VII rides along: purely static (config probes + closed
    # forms), so it costs ~a second, never touches the grid, and stays
    # byte-identical between fresh and checkpoint-resumed runs.
    from repro.analysis.recommend import recommend
    from repro.analysis.report import analyze_vendor_matrix

    def _recommendations() -> RecommendationReport:
        return recommend(report=analyze_vendor_matrix(vendors=names))

    spans: List[Any] = []
    events: List[Any] = []
    metrics: Dict[str, Any] = {}
    phase_started = time.perf_counter()
    if collect_obs:
        registry = MetricsRegistry()
        for outcome in result:
            if outcome.obs is None:
                continue
            spans.extend(outcome.obs.spans)
            events.extend(outcome.obs.events)
            registry.merge_snapshot(outcome.obs.metrics)
        with use_metrics(registry):
            recommendations = _recommendations()
        metrics = registry.snapshot()
    else:
        recommendations = _recommendations()
        if len(runner_registry):
            metrics = runner_registry.snapshot()
    phase_seconds["static"] = time.perf_counter() - phase_started

    tables: List["Table"] = []
    factors: Dict[str, float] = {}
    for family, sweep in sweeps:
        family_values = values.get(family.name, {})
        tables += sweep.tables(family_values)
        for key in sweep.ledger:
            label = ":".join(str(part) for part in (family.name, *key))
            factors[label] = family_values[key].amplification
    if faults:
        faulted = values["sbr-faults"]
        tables.append(_fault_table(faulted, names, _fault_sizes(quick), fault_seed))
        for vendor in names:
            for size in _fault_sizes(quick):
                factors[f"faulted:{vendor}:{size}"] = faulted[
                    (vendor, size, fault_seed)
                ].amplification
    tables.append(_fig7_table(list(values["flood"].values())))

    return RunAllReport(
        tables=tables,
        factors=factors,
        duration_s=result.duration_s,
        cell_seconds=timing.total_s,
        cell_count=len(result),
        timing=timing,
        timing_by_experiment=timing_by_experiment,
        simulated_seconds_by_experiment=simulated_seconds,
        cells=cells,
        spans=tuple(spans),
        events=tuple(events),
        metrics=metrics,
        restored_cells=restored_cells,
        table7_recommendations=recommendations,
        fastpath=planner.stats if planner is not None else None,
        phase_seconds=phase_seconds,
    )


def _fault_table(
    values: Dict["Key", Any], vendors: Sequence[str], sizes: Sequence[int], seed: int
) -> "Table":
    """Table VI from (vendor, size, seed) -> FaultedSbrResult values."""
    rows = []
    for vendor in vendors:
        for size in sizes:
            result = values[(vendor, size, seed)]
            rows.append(
                [
                    profile_class(vendor).display_name,
                    f"{size // MB}MB",
                    f"{result.clean_amplification:.0f}",
                    f"{result.amplification:.0f}",
                    f"{result.reamplification:.2f}x",
                    result.total_faults,
                    result.retries,
                    result.exhausted_fetches,
                    result.max_attempts,
                ]
            )
    headers = ["CDN", "Size", "Clean factor", "Faulted factor", "Re-amp"]
    headers += ["Faults", "Retries", "Exhausted", "Budget"]
    title = f"Table VI - SBR under faults + vendor retries (seed {seed})"
    return ("table6_faulted_sbr", title, headers, rows)


def _fig7_table(results: Sequence[Any]) -> "Table":
    """Fig 7 from the flood cells' BandwidthRunResults, in m order."""
    return (
        "fig7_bandwidth",
        "Fig 7 - origin egress vs m",
        ["m", "steady origin Mbps", "peak client Kbps", "saturated"],
        [
            [
                result.m,
                f"{result.steady_origin_mbps:.1f}",
                f"{result.peak_client_kbps:.1f}",
                "yes" if result.saturated else "no",
            ]
            for result in results
        ],
    )


def write_report(
    report: RunAllReport, output_dir: Union[str, Path]
) -> List[Path]:
    """Render the report's artifacts into ``output_dir`` (txt files)."""
    from repro.reporting.render import write_tables

    target = Path(output_dir)
    written = write_tables(report.tables, target)
    if report.table7_recommendations is not None:
        from repro.analysis.recommend import render_recommendations_table

        for name, content in (
            (
                "table7_recommendations.txt",
                render_recommendations_table(report.table7_recommendations),
            ),
            ("table7_recommendations.json", report.table7_recommendations.to_json()),
        ):
            path = target / name
            path.write_text(content + "\n", encoding="utf-8")
            written.append(path)
    return written
