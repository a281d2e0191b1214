"""Grid execution with grid-order outcomes.

:class:`GridRunner` runs every cell of an
:class:`~repro.runner.grid.ExperimentGrid` in order, in process, and
returns a :class:`GridResult` whose outcomes are in grid order.  The
whole paper grid is ~150 ms of work, so a process pool only adds its
start-up and a second import of the wire stack; every run is serial.

A failing cell never kills the sweep: its exception is captured as a
:class:`CellFailure` (type name + message + cause chain) and the
remaining cells keep running.  Per-cell wall time is recorded but
excluded from equality — timing is observability, not result.

A raising cell is not retried: cells are deterministic, so it would
raise again, and its failure is recorded as is.  Pass a
:class:`~repro.runner.checkpoint.RunCheckpoint` to :meth:`GridRunner.run`
and every finished cell is journaled immediately; a rerun restores
completed cells and only executes the remainder.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Tuple,
)

from repro.errors import ReproError
from repro.runner.experiments import execute_cell
from repro.runner.grid import ExperimentCell, ExperimentGrid

if TYPE_CHECKING:
    from repro.runner.checkpoint import RunCheckpoint

#: Signature of the runner's progress observer: called after every
#: finished cell with ``(outcome, done_count, total_count)``.
Observer = Callable[["CellOutcome", int, int], None]


class RunnerCellError(ReproError):
    """Raised when unwrapping a grid result that contains a failed cell."""


@dataclass(frozen=True)
class CellFailure:
    """A captured cell exception, comparable across runs.

    Only the exception type name, message and cause chain participate in
    equality: tracebacks embed file paths and line numbers, so they are
    carried for diagnostics only.
    """

    exception_type: str
    message: str
    #: The full cause chain, outermost first: ``"Type: message"`` per
    #: link, following ``__cause__`` then (unsuppressed) ``__context__``.
    #: Cheap strings, stable across runs, so it stays in equality.
    chain: Tuple[str, ...] = ()
    traceback: str = field(default="", compare=False, repr=False)

    @classmethod
    def from_exception(cls, error: BaseException) -> "CellFailure":
        chain: List[str] = []
        # Identity-list cycle guard: ``any(... is ...)`` instead of an
        # ``id()``-keyed set, so no address-derived value exists on this
        # path.  Cause chains are short; the linear scan is irrelevant.
        seen: List[BaseException] = []
        current: Optional[BaseException] = error
        while current is not None and not any(current is prior for prior in seen):
            seen.append(current)
            chain.append(f"{type(current).__name__}: {current}")
            if current.__cause__ is not None:
                current = current.__cause__
            elif current.__context__ is not None and not current.__suppress_context__:
                current = current.__context__
            else:
                current = None
        return cls(
            exception_type=type(error).__name__,
            message=str(error),
            chain=tuple(chain),
            traceback="".join(
                traceback.format_exception(type(error), error, error.__traceback__)
            ),
        )

    def describe(self) -> str:
        base = f"{self.exception_type}: {self.message}"
        if len(self.chain) > 1:
            return f"{base} (root cause: {self.chain[-1]})"
        return base


@dataclass(frozen=True)
class CellObservation:
    """Per-cell observability payload: spans, trace events, and a
    metrics snapshot collected while the cell ran.

    Built only when the runner is asked to ``collect``.
    """

    #: Finished :class:`~repro.obs.tracer.SpanRecord` objects.
    spans: Tuple[Any, ...] = ()
    #: :class:`~repro.netsim.trace.TraceEvent` objects from every
    #: attack ledger the cell produced.
    events: Tuple[Any, ...] = ()
    #: A :meth:`~repro.obs.metrics.MetricsRegistry.snapshot` dict.
    metrics: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class CellOutcome:
    """One executed cell: its value or its failure, plus timing."""

    cell: ExperimentCell
    index: int
    value: Any = None
    failure: Optional[CellFailure] = None
    #: Wall seconds the cell took; excluded from equality *and* repr so
    #: two runs of one grid compare and repr identical.
    duration_s: float = field(default=0.0, compare=False, repr=False)
    #: Observability payload (``None`` unless the run collected); like
    #: timing, excluded from equality and repr.
    obs: Optional[CellObservation] = field(default=None, compare=False, repr=False)

    @property
    def ok(self) -> bool:
        return self.failure is None

    def unwrap(self) -> Any:
        """The cell's value, re-raising a captured failure."""
        if self.failure is not None:
            raise RunnerCellError(
                f"cell {self.cell.label} failed: {self.failure.describe()}"
            )
        return self.value


@dataclass(frozen=True)
class CellTiming:
    """Aggregate per-cell wall-time statistics for one grid run.

    Failed cells are **included** in every figure (a cell that burned
    30 s before raising still burned 30 s) and additionally broken out
    as ``failed_s``/``failed_count``.
    """

    total_s: float = 0.0
    max_s: float = 0.0
    mean_s: float = 0.0
    ok_s: float = 0.0
    failed_s: float = 0.0
    count: int = 0
    failed_count: int = 0
    #: Label of the slowest cell ("" for an empty run).
    slowest: str = ""

    @classmethod
    def from_outcomes(cls, outcomes: Tuple["CellOutcome", ...]) -> "CellTiming":
        if not outcomes:
            return cls()
        total = sum(o.duration_s for o in outcomes)
        failed = [o for o in outcomes if not o.ok]
        peak = max(outcomes, key=lambda o: o.duration_s)
        return cls(
            total_s=total,
            max_s=peak.duration_s,
            mean_s=total / len(outcomes),
            ok_s=total - sum(o.duration_s for o in failed),
            failed_s=sum(o.duration_s for o in failed),
            count=len(outcomes),
            failed_count=len(failed),
            slowest=peak.cell.label,
        )


@dataclass(frozen=True)
class GridResult:
    """All outcomes of one grid run, merged in grid order."""

    grid_name: str
    outcomes: Tuple[CellOutcome, ...]
    #: Wall seconds for the whole run; excluded from equality and repr.
    duration_s: float = field(default=0.0, compare=False, repr=False)

    def __iter__(self) -> Iterator[CellOutcome]:
        return iter(self.outcomes)

    def __len__(self) -> int:
        return len(self.outcomes)

    def values(self) -> List[Any]:
        """Every cell value in grid order, re-raising the first failure."""
        return [outcome.unwrap() for outcome in self.outcomes]

    def failures(self) -> List[CellOutcome]:
        return [outcome for outcome in self.outcomes if not outcome.ok]

    def value_by_key(self) -> Dict[Tuple[Any, ...], Any]:
        """Map cell key -> value for successful cells."""
        return {o.cell.key: o.value for o in self.outcomes if o.ok}

    def cell_seconds(self) -> CellTiming:
        """Per-cell wall-time statistics (total, max, mean, failed-cell
        share) — not just the sum, and failed cells count too."""
        return CellTiming.from_outcomes(self.outcomes)


def _run_cell(cell: ExperimentCell) -> Tuple[Any, Optional[CellFailure]]:
    """``(value, None)``, or ``(None, failure)`` when the cell raises."""
    try:
        return execute_cell(cell), None
    except Exception as error:
        return None, CellFailure.from_exception(error)


def _execute_indexed(
    index: int, cell: ExperimentCell, collect: bool = False
) -> CellOutcome:
    """Run one cell, capturing failure and timing.

    With ``collect=True`` the cell runs under a fresh
    :class:`~repro.obs.tracer.Tracer` (span ids prefixed with the cell
    index so traces from different cells never collide) and a fresh
    :class:`~repro.obs.metrics.MetricsRegistry`; the harvest is attached
    as :attr:`CellOutcome.obs`.
    """
    if not collect:
        started = time.perf_counter()
        value, failure = _run_cell(cell)
        return CellOutcome(
            cell=cell,
            index=index,
            value=value,
            failure=failure,
            duration_s=time.perf_counter() - started,
        )

    from repro.obs.metrics import MetricsRegistry, use_metrics
    from repro.obs.tracer import Tracer, use_tracer

    tracer = Tracer(id_prefix=f"c{index}.")
    registry = MetricsRegistry()
    started = time.perf_counter()
    with use_tracer(tracer), use_metrics(registry):
        with tracer.span("runner.cell") as span:
            span.set(experiment=cell.experiment, label=cell.label, index=index)
            value, failure = _run_cell(cell)
            if failure is None:
                span.set(ok=True)
            else:
                span.set(ok=False, error=failure.describe())
    duration = time.perf_counter() - started
    registry.record_cell(cell.experiment, duration, failure is None)
    return CellOutcome(
        cell=cell,
        index=index,
        value=value,
        failure=failure,
        duration_s=duration,
        obs=CellObservation(
            spans=tracer.finished_spans(),
            events=tracer.events(),
            metrics=registry.snapshot(),
        ),
    )


class GridRunner:
    """Executes experiment grids, one cell after another, in grid order."""

    def __init__(
        self,
        *,
        workers: int = 1,
        collect: bool = False,
        observer: Optional[Observer] = None,
    ) -> None:
        """``workers`` is ignored; only the e2e benchmark harness still
        passes it, and the next change to that harness deletes it."""
        #: When true, every cell runs traced+metered and its outcome
        #: carries a :class:`CellObservation`.
        self.collect = collect
        #: Progress callback invoked after every finished cell.
        self.observer = observer

    def run(
        self, grid: ExperimentGrid, checkpoint: Optional["RunCheckpoint"] = None
    ) -> GridResult:
        """Run every cell; outcomes come back in grid order.

        With a ``checkpoint``, previously journaled successful cells are
        restored without re-running (or re-notifying the observer), and
        every freshly finished cell is journaled before the run moves on.
        """
        started = time.perf_counter()
        cells = grid.cells
        restored = checkpoint.restore(cells) if checkpoint is not None else {}
        done = len(restored)
        outcomes: List[CellOutcome] = []
        for i, cell in enumerate(cells):
            outcome = restored.get(i)
            if outcome is None:
                outcome = _execute_indexed(i, cell, collect=self.collect)
                if checkpoint is not None:
                    checkpoint.record(outcome)
                done += 1
                if self.observer is not None:
                    self.observer(outcome, done, len(cells))
            outcomes.append(outcome)
        return GridResult(
            grid_name=grid.name,
            outcomes=tuple(outcomes),
            duration_s=time.perf_counter() - started,
        )
