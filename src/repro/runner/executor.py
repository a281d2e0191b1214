"""Parallel grid execution with deterministic result merging.

:class:`GridRunner` runs every cell of an
:class:`~repro.runner.grid.ExperimentGrid` — serially in-process, or
fanned out over a :class:`~concurrent.futures.ProcessPoolExecutor` —
and returns a :class:`GridResult` whose outcomes are **always in grid
order**, regardless of completion order.  Because every cell function is
deterministic, the parallel result object compares (and reprs) identical
to the serial one; ``tests/runner/test_equivalence.py`` pins that
guarantee.

A failing cell never kills the sweep: its exception is captured as a
:class:`CellFailure` (type name + message + cause chain, all stable
across processes) and the remaining cells keep running.  Per-cell wall
time is recorded but excluded from equality — timing is observability,
not result.

A raising cell is not retried: cells are deterministic, so it would
raise again, and its failure is recorded as is.  Degradation is layered:

* **worker-crash containment**: a worker process dying (OOM kill,
  segfault) breaks a ``ProcessPoolExecutor`` irrecoverably — the runner
  catches the break, re-runs the in-flight cells solo to separate the
  crasher from innocent bystanders, and records a deterministic crasher
  as a ``WorkerCrash`` failure instead of losing the sweep;
* **checkpointing**: pass a
  :class:`~repro.runner.checkpoint.RunCheckpoint` to :meth:`GridRunner.run`
  and every finished cell is journaled immediately; a rerun restores
  completed cells and only executes the remainder.

Worker-count resolution, in priority order:

1. an explicit ``workers=`` argument;
2. ``REPRO_RUNNER_WORKERS`` in the environment (``1`` forces serial
   execution wherever no caller names a count);
3. ``os.cpu_count()``.

``workers <= 1`` always means the serial in-process path.
"""

from __future__ import annotations

import os
import time
import traceback
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
    wait,
)
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

#: Environment variable providing the default worker count.
WORKERS_ENV = "REPRO_RUNNER_WORKERS"

#: Exception-type name given to cells whose worker process died.
WORKER_CRASH = "WorkerCrash"


class RunnerCellError(ReproError):
    """Raised when unwrapping a grid result that contains a failed cell."""


@dataclass(frozen=True)
class CellFailure:
    """A captured cell exception, comparable across process boundaries.

    Only the exception type name and message participate in equality:
    tracebacks embed file paths and line numbers that differ between the
    serial and pool paths, so they are carried for diagnostics only.
    """

    exception_type: str
    message: str
    #: The full cause chain, outermost first: ``"Type: message"`` per
    #: link, following ``__cause__`` then (unsuppressed) ``__context__``.
    #: Cheap strings, stable across processes, so it stays in equality.
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

    Built only when the runner is asked to ``collect``; ships across the
    process-pool boundary as plain tuples/dicts.
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
    #: a parallel run's outcomes are byte-identical to a serial run's.
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
    workers: int = field(default=1, compare=False, repr=False)
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


def resolve_workers(workers: Optional[int] = None) -> int:
    """Apply the worker-count resolution rules documented above."""
    if workers is not None:
        return max(1, workers)
    env = os.environ.get(WORKERS_ENV, "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ReproError(f"{WORKERS_ENV} must be an integer, got {env!r}")
    return max(1, os.cpu_count() or 1)


def _run_cell(cell: ExperimentCell) -> Tuple[Any, Optional[CellFailure]]:
    """``(value, None)``, or ``(None, failure)`` when the cell raises."""
    try:
        return execute_cell(cell), None
    except Exception as error:
        return None, CellFailure.from_exception(error)


def _execute_indexed(
    index: int, cell: ExperimentCell, collect: bool = False
) -> CellOutcome:
    """Run one cell, capturing failure and timing (worker entry point).

    With ``collect=True`` the cell runs under a fresh
    :class:`~repro.obs.tracer.Tracer` (span ids prefixed with the cell
    index so traces from different cells never collide) and a fresh
    :class:`~repro.obs.metrics.MetricsRegistry`; the harvest ships back
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


class _PoolBroken(Exception):
    """Internal: the process pool died with these cell indices in flight."""

    def __init__(self, in_flight: List[int]) -> None:
        super().__init__(f"pool broke with cells {in_flight} in flight")
        self.in_flight = in_flight


class GridRunner:
    """Executes experiment grids, serially or over a process pool."""

    def __init__(
        self,
        workers: Optional[int] = None,
        collect: bool = False,
        observer: Optional[Observer] = None,
        max_pool_restarts: int = 8,
    ) -> None:
        self.workers = resolve_workers(workers)
        #: Cap on futures in flight; bounds memory for very large grids.
        self.max_pending = self.workers * 4
        #: When true, every cell runs traced+metered and its outcome
        #: carries a :class:`CellObservation`.
        self.collect = collect
        #: Progress callback invoked after every finished cell (in
        #: completion order, which differs from grid order under a pool).
        self.observer = observer
        #: How many broken-pool recoveries to tolerate before giving up.
        self.max_pool_restarts = max_pool_restarts

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
        slots: List[Optional[CellOutcome]] = [None] * len(cells)
        if checkpoint is not None:
            for index, outcome in checkpoint.restore(cells).items():
                slots[index] = outcome
        remaining = sum(1 for slot in slots if slot is None)
        if self.workers <= 1 or remaining <= 1:
            done = len(cells) - remaining
            for i, cell in enumerate(cells):
                if slots[i] is not None:
                    continue
                outcome = _execute_indexed(i, cell, collect=self.collect)
                slots[i] = outcome
                done += 1
                self._record(outcome, checkpoint)
                self._notify(outcome, done, len(cells))
            effective_workers = 1
        else:
            self._run_pool(cells, slots, checkpoint)
            effective_workers = min(self.workers, remaining)
        assert all(outcome is not None for outcome in slots)
        return GridResult(
            grid_name=grid.name,
            outcomes=tuple(outcome for outcome in slots if outcome is not None),
            workers=effective_workers,
            duration_s=time.perf_counter() - started,
        )

    def _notify(self, outcome: CellOutcome, done: int, total: int) -> None:
        if self.observer is not None:
            self.observer(outcome, done, total)

    def _record(
        self, outcome: CellOutcome, checkpoint: Optional["RunCheckpoint"]
    ) -> None:
        if checkpoint is not None:
            checkpoint.record(outcome)

    def _run_pool(
        self,
        cells: Tuple[ExperimentCell, ...],
        slots: List[Optional[CellOutcome]],
        checkpoint: Optional["RunCheckpoint"],
    ) -> None:
        """Fill the empty ``slots`` via a process pool, surviving crashes.

        A worker process dying poisons the whole ``ProcessPoolExecutor``
        (every pending future raises ``BrokenProcessPool``), so recovery
        is pass-based: re-run the cells that were in flight when the pool
        broke **solo** — a one-cell, one-worker pass — which cleanly
        separates a deterministic crasher (its solo pass breaks too, and
        it gets a ``WorkerCrash`` failure) from innocent cells that just
        shared the doomed pool.  Then resume pooled execution for the
        rest.
        """
        done_counter = [sum(1 for slot in slots if slot is not None)]
        restarts = 0
        while True:
            remaining = [i for i, slot in enumerate(slots) if slot is None]
            if not remaining:
                return
            try:
                self._pool_pass(cells, slots, remaining, checkpoint, done_counter)
            except _PoolBroken as broken:
                restarts += 1
                if restarts > self.max_pool_restarts:
                    raise ReproError(
                        f"grid run aborted: process pool broke {restarts} times "
                        f"(last in-flight cells: {broken.in_flight})"
                    )
                self._retry_solo(cells, slots, broken.in_flight, checkpoint, done_counter)

    def _retry_solo(
        self,
        cells: Tuple[ExperimentCell, ...],
        slots: List[Optional[CellOutcome]],
        suspects: List[int],
        checkpoint: Optional["RunCheckpoint"],
        done_counter: List[int],
    ) -> None:
        for index in suspects:
            if slots[index] is not None:
                continue
            try:
                self._pool_pass(
                    cells, slots, [index], checkpoint, done_counter, solo=True
                )
            except _PoolBroken:
                # Crashed alone in a fresh single-worker pool: the cell
                # itself kills its worker, deterministically.
                outcome = CellOutcome(
                    cell=cells[index],
                    index=index,
                    failure=CellFailure(
                        exception_type=WORKER_CRASH,
                        message=(
                            f"worker process died while running {cells[index].label}"
                        ),
                    ),
                )
                slots[index] = outcome
                done_counter[0] += 1
                self._record(outcome, checkpoint)
                self._notify(outcome, done_counter[0], len(cells))

    def _pool_pass(
        self,
        cells: Tuple[ExperimentCell, ...],
        slots: List[Optional[CellOutcome]],
        batch: List[int],
        checkpoint: Optional["RunCheckpoint"],
        done_counter: List[int],
        solo: bool = False,
    ) -> None:
        workers = 1 if solo else min(self.workers, len(batch))
        queue = iter(batch)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            pending: Dict[Any, int] = {}
            exhausted = False
            while not exhausted or pending:
                while not exhausted and len(pending) < self.max_pending:
                    try:
                        index = next(queue)
                    except StopIteration:
                        exhausted = True
                        break
                    future = pool.submit(
                        _execute_indexed, index, cells[index], self.collect
                    )
                    pending[future] = index
                if not pending:
                    continue
                done, _ = wait(set(pending), return_when=FIRST_COMPLETED)
                for future in done:
                    try:
                        outcome = future.result()
                    except BrokenExecutor:
                        raise _PoolBroken(sorted(pending.values()))
                    del pending[future]
                    slots[outcome.index] = outcome
                    done_counter[0] += 1
                    self._record(outcome, checkpoint)
                    self._notify(outcome, done_counter[0], len(cells))
