"""One-shot regeneration of Tables IV–V and Figs 6–7 through the runner.

:func:`run_all` builds a **single combined grid** — the SBR vendor x
size sweep (serving both Table IV and Fig 6, deduped), the 11 Table V
cascades, and the 15 Fig 7 flood intensities — executes it through one
:class:`~repro.runner.executor.GridRunner`, and assembles the row and
series objects with the ``*_from_results`` functions of
``repro.reporting``.  One pool, every cell kind interleaved, so slow
OBR searches overlap with cheap SBR cells instead of serializing behind
them.  :func:`report_tables` is the one definition of every artifact's
layout; :func:`write_report` writes it.

Determinism: cell functions are pure and outcomes merge in grid order,
so ``run_all(workers=N)`` returns equal objects for every N.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.recommend import RecommendationReport
from repro.cdn.vendors import all_vendor_names
from repro.core.obr import vulnerable_combinations
from repro.core.practical import flood_grid
from repro.core.sbr import sbr_grid
from repro.errors import ReproError
from repro.faults.experiment import DEFAULT_FAULT_ROUNDS, DEFAULT_FAULT_SEED
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
from repro.runner.memo import sbr_per_request_traffic

if TYPE_CHECKING:  # pragma: no cover
    from repro.reporting.render import Table

MB = 1 << 20

#: Quick-mode trims of the Table V and Fig 7 sweeps.
QUICK_TABLE5_COMBOS = (("cloudflare", "akamai"), ("cdn77", "azure"))
QUICK_FIG7_MS = (2, 12, 15)


@dataclass(frozen=True)
class RunAllReport:
    """Every regenerated artifact plus run telemetry."""

    table4: List
    table5: List
    fig6: List
    fig7: List
    workers: int
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
    #: Observability harvest — empty unless the run collected.
    spans: Tuple[Any, ...] = ()
    events: Tuple[Any, ...] = ()
    metrics: Dict[str, Any] = field(default_factory=dict)
    #: Compression-conversion rows (CCFC, arXiv 2409.00712 follow-up).
    table_ccfc: List = field(default_factory=list)
    #: Faulted-SBR rows (Table VI) — empty unless the run was faulted.
    table_faults: List = field(default_factory=list)
    #: Seed the faulted cells ran under (``None`` for clean runs).
    fault_seed: Optional[int] = None
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

    @property
    def speedup(self) -> float:
        """Serial-equivalent work over wall time (1.0 when serial)."""
        if self.duration_s <= 0:
            return 1.0
        return self.cell_seconds / self.duration_s


def build_run_all_grid(
    vendors: Optional[Sequence[str]] = None,
    fig6_sizes: Optional[Sequence[int]] = None,
    table4_sizes: Sequence[int] = (1 * MB, 10 * MB, 25 * MB),
    table5_combos: Optional[Sequence[Tuple[str, str]]] = None,
    fig7_ms: Sequence[int] = tuple(range(1, 16)),
    flood_vendor: str = "cloudflare",
    fault_sizes: Sequence[int] = (),
    fault_seed: int = DEFAULT_FAULT_SEED,
    fault_rounds: int = DEFAULT_FAULT_ROUNDS,
    ccfc_sizes: Sequence[int] = (10 * MB,),
) -> ExperimentGrid:
    """The combined Tables IV–V / Figs 6–7 grid (deduped, ordered).

    A non-empty ``fault_sizes`` adds the faulted-SBR sweep (Table VI):
    one cell per vendor x size, each running ``fault_rounds`` attack
    rounds under the seeded default fault plan with vendor retries on.
    """
    from repro.reporting.figures import default_fig6_sizes

    names = list(vendors) if vendors is not None else all_vendor_names()
    sizes6 = list(fig6_sizes) if fig6_sizes is not None else default_fig6_sizes()
    combos = (
        list(table5_combos) if table5_combos is not None else vulnerable_combinations()
    )
    grid = ExperimentGrid("run-all")
    # OBR cells first: each hides a max-n search and a thousands-part
    # multipart and dominates wall time, so they must start before the
    # swarm of cheap SBR cells.
    from repro.core.obr import obr_grid

    grid.extend(obr_grid(combos).cells)
    if fault_sizes:
        from repro.faults.experiment import faulted_sbr_grid

        # Faulted cells run many attack rounds each; start them early,
        # right behind the OBR searches, so they overlap the cheap tail.
        grid.extend(
            faulted_sbr_grid(
                names, tuple(fault_sizes), seed=fault_seed, rounds=fault_rounds
            ).cells
        )
    grid.extend(
        flood_grid(
            fig7_ms,
            vendor=flood_vendor,
            per_request=sbr_per_request_traffic(flood_vendor, 10 * MB),
        ).cells
    )
    grid.extend(sbr_grid(names, tuple(sizes6), name="fig6-sbr").cells)
    grid.extend(sbr_grid(names, tuple(table4_sizes), name="table4-sbr").cells)
    if ccfc_sizes:
        from repro.core.ccfc import ccfc_grid

        grid.extend(ccfc_grid(names, tuple(ccfc_sizes)).cells)
    return grid


def run_all(
    workers: Optional[int] = None,
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

    ``quick=True`` trims the grid for smoke runs (Table IV at 1 MB,
    Fig 6 at three sizes, two Table V cascades, three Fig 7 points) —
    the CI path.  Results are identical for every worker count; the
    equivalence tests pin this.

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

    By default the fast path answers the SBR/OBR/CCFC measurement cells
    before the grid runs, by simulating each one in-process; OBR max n
    comes from the memoized static search.  ``exact=True`` sends every
    cell through the grid runner instead, where OBR max n comes from
    wire probes — the reference path the fast path is differentially
    tested against.  Observability runs (``collect_obs=True``) also
    bypass the fast path: only the grid runner traces and meters each
    cell.
    """
    from repro.reporting.figures import fig6_series_from_results
    from repro.reporting.tables import (
        ccfc_rows_from_results,
        fault_rows_from_results,
        table4_rows_from_results,
        table5_rows_from_results,
    )

    names = list(vendors) if vendors is not None else all_vendor_names()
    if quick:
        fig6_sizes: Sequence[int] = (1 * MB, 2 * MB, 3 * MB)
        table4_sizes: Sequence[int] = (1 * MB,)
        combos: Sequence[Tuple[str, str]] = QUICK_TABLE5_COMBOS
        fig7_ms: Sequence[int] = QUICK_FIG7_MS
        ccfc_sizes: Sequence[int] = (1 * MB,)
    else:
        from repro.reporting.figures import default_fig6_sizes

        fig6_sizes = default_fig6_sizes()
        table4_sizes = (1 * MB, 10 * MB, 25 * MB)
        combos = vulnerable_combinations()
        fig7_ms = tuple(range(1, 16))
        ccfc_sizes = (10 * MB,)
    fault_sizes: Sequence[int] = ()
    fault_rounds = DEFAULT_FAULT_ROUNDS
    if faults:
        fault_sizes = (1 * MB,) if quick else (1 * MB, 10 * MB)
        fault_rounds = 4 if quick else DEFAULT_FAULT_ROUNDS

    grid = build_run_all_grid(
        vendors=names,
        fig6_sizes=fig6_sizes,
        table4_sizes=table4_sizes,
        table5_combos=combos,
        fig7_ms=fig7_ms,
        fault_sizes=fault_sizes,
        fault_seed=fault_seed,
        ccfc_sizes=ccfc_sizes,
    )

    if resume and checkpoint_path is None:
        raise ReproError("resume requires a checkpoint path")

    from repro.obs.metrics import MetricsRegistry, use_metrics

    phase_seconds: Dict[str, float] = {}
    planner: Optional[FastPathPlanner] = None
    fast_outcomes: Dict[int, CellOutcome] = {}
    subgrid = grid
    # Runner-level telemetry (fast-path decision counters) records even
    # when per-cell collection is off, so every run record carries it.
    runner_registry = MetricsRegistry()
    if not exact and not collect_obs:
        planner = FastPathPlanner()
        phase_started = time.perf_counter()
        with use_metrics(runner_registry):
            fast_plan = planner.plan(grid)
        phase_seconds["fastpath"] = time.perf_counter() - phase_started
        fast_outcomes = fast_plan.outcomes
        subgrid = fast_plan.residual

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

    runner = GridRunner(workers, collect=collect_obs, observer=observer)
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
            workers=result.workers,
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
        return recommend(
            report=analyze_vendor_matrix(
                resource_size=10 * MB, obr_resource_size=1024, vendors=names
            )
        )

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

    return RunAllReport(
        table4=table4_rows_from_results(values.get("sbr", {}), names, table4_sizes),
        table5=table5_rows_from_results(values.get("obr", {}), combos),
        fig6=fig6_series_from_results(values.get("sbr", {}), names, fig6_sizes),
        fig7=list(values.get("flood", {}).values()),
        workers=result.workers,
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
        table_ccfc=ccfc_rows_from_results(values.get("ccfc", {}), names, ccfc_sizes),
        table_faults=(
            fault_rows_from_results(
                values["sbr-faults"], names, fault_sizes, fault_seed
            )
            if fault_sizes
            else []
        ),
        fault_seed=fault_seed if faults else None,
        restored_cells=restored_cells,
        table7_recommendations=recommendations,
        fastpath=planner.stats if planner is not None else None,
        phase_seconds=phase_seconds,
    )


def report_tables(report: RunAllReport) -> List["Table"]:
    """Every table :func:`write_report` renders, in write order.

    The one place each artifact's headers and cell formats are defined:
    ``write_report`` writes these tables, ``repro run-all`` prints them
    and ``repro report`` adds their markdown twins.  Table VII keeps its
    own rendering (:func:`~repro.analysis.recommend.render_recommendations_table`).
    """
    from repro.reporting.paper_values import PAPER_TABLE4_FACTORS, PAPER_TABLE5

    sizes = sorted(report.table4[0].factors) if report.table4 else []
    tables: List[Table] = [
        (
            "table4_sbr_factors",
            "Table IV - SBR amplification factors",
            ["CDN", "Exploited Case"] + [f"{s // MB}MB (paper)" for s in sizes],
            [
                [
                    row.display_name,
                    " & ".join(row.exploited_cases),
                    *(
                        f"{row.factors[s]:.0f} "
                        f"({PAPER_TABLE4_FACTORS[row.vendor].get(s, '-')})"
                        for s in sizes
                    ),
                ]
                for row in report.table4
            ],
        ),
        (
            "table5_obr_factors",
            "Table V - OBR amplification factors",
            ["FCDN", "BCDN", "Max n (paper)", "BCDN->FCDN B (paper)", "Factor (paper)"],
            [
                [
                    row.fcdn,
                    row.bcdn,
                    f"{row.max_n} ({PAPER_TABLE5[(row.fcdn, row.bcdn)][0]})",
                    f"{row.fcdn_bcdn_traffic} ({PAPER_TABLE5[(row.fcdn, row.bcdn)][2]})",
                    f"{row.factor:.1f} ({PAPER_TABLE5[(row.fcdn, row.bcdn)][3]})",
                ]
                for row in report.table5
            ],
        ),
    ]
    if report.fig6:
        tables.append(
            (
                "fig6a_amplification_factors",
                "Fig 6a - SBR amplification factor vs resource size",
                ["size"] + [series.vendor for series in report.fig6],
                [
                    [f"{size // MB}MB"]
                    + [f"{series.factors[i]:.0f}" for series in report.fig6]
                    for i, size in enumerate(report.fig6[0].sizes)
                ],
            )
        )
    if report.table_ccfc:
        ccfc_sizes = sorted(report.table_ccfc[0].factors)
        tables.append(
            (
                "table_ccfc",
                "CCFC - compression-conversion amplification factors",
                ["CDN", "Negotiated coding"]
                + [f"{s // MB}MB factor" for s in ccfc_sizes],
                [
                    [
                        row.display_name,
                        row.encoding or "-",
                        *(f"{row.factors[s]:.1f}" for s in ccfc_sizes),
                    ]
                    for row in report.table_ccfc
                ],
            )
        )
    if report.table_faults:
        tables.append(
            (
                "table6_faulted_sbr",
                f"Table VI - SBR under faults + vendor retries "
                f"(seed {report.fault_seed})",
                [
                    "CDN",
                    "Size",
                    "Clean factor",
                    "Faulted factor",
                    "Re-amp",
                    "Faults",
                    "Retries",
                    "Exhausted",
                    "Budget",
                ],
                [
                    [
                        row.display_name,
                        f"{row.resource_size // MB}MB",
                        f"{row.clean_factor:.0f}",
                        f"{row.faulted_factor:.0f}",
                        f"{row.reamplification:.2f}x",
                        row.faults,
                        row.retries,
                        row.exhausted_fetches,
                        row.max_attempts,
                    ]
                    for row in report.table_faults
                ],
            )
        )
    tables.append(
        (
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
                for result in report.fig7
            ],
        )
    )
    return tables


def write_report(
    report: RunAllReport, output_dir: Union[str, Path]
) -> List[Path]:
    """Render the report's artifacts into ``output_dir`` (txt files)."""
    from repro.reporting.render import write_tables

    target = Path(output_dir)
    written = write_tables(report_tables(report), target)
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
