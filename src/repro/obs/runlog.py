"""Persistent run ledger: schema-versioned records of every run.

The paper's methodology is longitudinal — the same attack observed from
four tcpdump vantage points, compared across runs.  The simulator's
single-run observability (spans, metrics, profiles) threw everything
away when the process exited; this module is the storage layer that
keeps it.  Every entry point (``run-all``, ``analyze``, ``recommend``,
faulted runs) can emit one :class:`RunRecord` — command, config digest,
phase timings, per-cell timings, fast-path counters, the full metrics
snapshot, and artifact digests — appended to an append-only JSONL
ledger (:class:`RunLedger`).

Determinism contract: records never read the wall clock themselves.
The timestamp comes from an **injected clock** (any ``() -> float``;
``time.time`` by default) and every duration is an input, so a fixed
clock plus fixed inputs yields byte-identical records —
``tests/obs/test_runlog.py`` pins this.  Serialization is canonical
JSON (sorted keys, fixed separators) and the loader is strict: unknown
schema versions and malformed payloads raise :class:`RunLogError`
instead of half-loading, with the single exception of a torn final
line left by a killed writer, which is skipped like the checkpoint
journal's.

Cross-run analysis lives here too: :func:`diff_runs` computes per-cell
timing deltas and amplification-factor drift between two ledger
entries, and :meth:`RunDiff.gate_failures` turns them into the CI
gate behind ``repro obs diff --gate`` — per-cell slowdowns that the
coarse wall-clock benchmark gate averages away fail loudly instead.
"""

from __future__ import annotations

import hashlib
import json
import os
import time

try:  # advisory file locking is POSIX-only; appends degrade gracefully
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.errors import ReproError

if TYPE_CHECKING:
    from repro.analysis.recommend import RecommendationReport
    from repro.analysis.report import AnalysisReport
    from repro.runner.runall import RunAllReport

#: Current on-disk schema version; bump on any shape change.
RUNLOG_SCHEMA_VERSION = 1

#: Default ledger file name (CLI ``--runlog`` with no argument).
RUNLOG_FILENAME = "runlog.jsonl"

#: A timestamp source: ``() -> float`` epoch seconds.  Injected so
#: tests (and resumed runs) can pin records byte-for-byte.
Clock = Callable[[], float]

MB = 1 << 20


class RunLogError(ReproError):
    """A ledger file or run record failed schema or type validation."""


def config_digest(config: Mapping[str, Any]) -> str:
    """Stable digest over a run's configuration mapping."""
    token = json.dumps(dict(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(token.encode("utf-8")).hexdigest()


def artifact_digest(path: Union[str, Path]) -> str:
    """SHA-256 of one written artifact file."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@dataclass(frozen=True)
class CellRecord:
    """One grid cell's timing, as persisted in a run record."""

    label: str
    experiment: str
    seconds: float
    ok: bool

    def to_dict(self) -> Dict[str, Any]:
        return {
            "label": self.label,
            "experiment": self.experiment,
            "seconds": self.seconds,
            "ok": self.ok,
        }


@dataclass(frozen=True)
class RunRecord:
    """One persisted run: what ran, how long, and what it produced."""

    schema_version: int
    #: Deterministic id: digest over ``(started_at, command, config)``.
    run_id: str
    #: Entry point (``run-all`` / ``analyze`` / ``recommend``).
    command: str
    #: Human label, e.g. ``run-all-quick`` or ``run-all-faults``.
    label: str
    #: Injected-clock epoch seconds when the record was built.
    started_at: float
    #: End-to-end wall seconds for the run being described.
    wall_s: float
    workers: int
    cell_count: int
    #: The knobs that shaped the run (quick/exact/faults/seed/sizes...).
    config: Dict[str, Any] = field(default_factory=dict)
    config_digest: str = ""
    #: Phase name -> wall seconds (``fastpath``/``grid``/``validate``/...).
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    #: Per-cell timings, grid order.
    cells: Tuple[CellRecord, ...] = ()
    #: Stable key -> amplification (or bound/residual) factor.  Keys:
    #: ``sbr:<vendor>:<size>``, ``obr:<fcdn>:<bcdn>``,
    #: ``ccfc:<vendor>:<size>``, ``faulted:<vendor>:<size>``,
    #: ``bound:<kind>:<subject>``, ``residual:<kind>:<subject>``.
    factors: Dict[str, float] = field(default_factory=dict)
    #: Fast-path counters (``None`` for exact/observability runs).
    fastpath: Optional[Dict[str, Any]] = None
    #: Full :meth:`~repro.obs.metrics.MetricsRegistry.snapshot` dump.
    metrics: Dict[str, Any] = field(default_factory=dict)
    #: Written artifact name -> SHA-256 content digest.
    artifacts: Dict[str, str] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": self.schema_version,
            "run_id": self.run_id,
            "command": self.command,
            "label": self.label,
            "started_at": self.started_at,
            "wall_s": self.wall_s,
            "workers": self.workers,
            "cell_count": self.cell_count,
            "config": dict(self.config),
            "config_digest": self.config_digest,
            "phase_seconds": dict(self.phase_seconds),
            "cells": [cell.to_dict() for cell in self.cells],
            "factors": dict(self.factors),
            "fastpath": dict(self.fastpath) if self.fastpath is not None else None,
            "metrics": self.metrics,
            "artifacts": dict(self.artifacts),
        }

    def to_json(self) -> str:
        """Canonical one-line serialization (ledger line format)."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @property
    def cell_seconds(self) -> float:
        return sum(cell.seconds for cell in self.cells)


def _require(payload: Mapping[str, Any], key: str, kind: type) -> Any:
    if key not in payload:
        raise RunLogError(f"run record is missing {key!r}")
    value = payload[key]
    # bool is an int subclass; a stray true/false in a count field must
    # fail validation, not pass as 1/0.
    if isinstance(value, bool) and kind is not bool:
        raise RunLogError(
            f"run record field {key!r} must be {kind.__name__}, got bool"
        )
    if not isinstance(value, kind):
        if kind is float and isinstance(value, int):
            return float(value)
        raise RunLogError(
            f"run record field {key!r} must be {kind.__name__}, "
            f"got {type(value).__name__}"
        )
    return value


def _float_map(payload: Mapping[str, Any], key: str) -> Dict[str, float]:
    raw = payload.get(key, {})
    if not isinstance(raw, Mapping):
        raise RunLogError(f"run record field {key!r} must be an object")
    out: Dict[str, float] = {}
    for name, value in raw.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise RunLogError(f"run record {key}[{name!r}] must be a number")
        out[str(name)] = float(value)
    return out


#: Fast-path counts every run-all record carries.
_FASTPATH_COUNTS = ("answered", "refused", "ineligible")


def _fastpath(payload: Mapping[str, Any]) -> Optional[Dict[str, Any]]:
    raw = payload.get("fastpath")
    if raw is None:
        return None
    if not isinstance(raw, Mapping):
        raise RunLogError("run record field 'fastpath' must be an object or null")
    keys = _FASTPATH_COUNTS
    if "calibration_runs" in raw:
        # Written while OBR cells were calibrated; older ledgers still load.
        keys += ("calibration_runs",)
    out: Dict[str, Any] = {}
    for key in keys:
        count = _require(raw, key, int)
        if count < 0:
            raise RunLogError(f"run record fastpath[{key!r}] must be non-negative")
        out[key] = count
    hit_rate = _require(raw, "hit_rate", float)
    if not 0.0 <= hit_rate <= 1.0:
        raise RunLogError("run record fastpath['hit_rate'] must be within [0, 1]")
    out["hit_rate"] = hit_rate
    return out


def record_from_serve(
    config: Mapping[str, Any],
    wall_s: float,
    requests_total: int,
    metrics: Mapping[str, Any],
    clock: Optional[Clock] = None,
    label: str = "serve",
) -> RunRecord:
    """Persist one ``repro serve`` session at drain time.

    ``cell_count`` carries the total requests seen (admitted + shed);
    the per-outcome split lives in the metrics snapshot under
    ``repro_serve_requests_total``.
    """
    return _new_record(
        "serve",
        label,
        config,
        wall_s,
        clock,
        workers=int(config.get("workers", 1)),
        cell_count=requests_total,
        metrics=dict(metrics),
    )


def record_from_dict(payload: Mapping[str, Any]) -> RunRecord:
    """Validate and type one raw JSON payload into a :class:`RunRecord`."""
    if not isinstance(payload, Mapping):
        raise RunLogError(
            f"run record must be an object, got {type(payload).__name__}"
        )
    version = _require(payload, "schema_version", int)
    if version != RUNLOG_SCHEMA_VERSION:
        raise RunLogError(
            f"unknown run-record schema version {version} "
            f"(this build reads version {RUNLOG_SCHEMA_VERSION})"
        )
    raw_cells = payload.get("cells", [])
    if not isinstance(raw_cells, Sequence) or isinstance(raw_cells, (str, bytes)):
        raise RunLogError("run record field 'cells' must be an array")
    cells: List[CellRecord] = []
    for entry in raw_cells:
        if not isinstance(entry, Mapping):
            raise RunLogError("run record cell entries must be objects")
        cells.append(
            CellRecord(
                label=_require(entry, "label", str),
                experiment=_require(entry, "experiment", str),
                seconds=_require(entry, "seconds", float),
                ok=_require(entry, "ok", bool),
            )
        )
    raw_config = payload.get("config", {})
    if not isinstance(raw_config, Mapping):
        raise RunLogError("run record field 'config' must be an object")
    raw_metrics = payload.get("metrics", {})
    if not isinstance(raw_metrics, Mapping):
        raise RunLogError("run record field 'metrics' must be an object")
    raw_artifacts = payload.get("artifacts", {})
    if not isinstance(raw_artifacts, Mapping):
        raise RunLogError("run record field 'artifacts' must be an object")
    artifacts: Dict[str, str] = {}
    for name, digest in raw_artifacts.items():
        if not isinstance(digest, str):
            raise RunLogError(f"run record artifacts[{name!r}] must be a string")
        artifacts[str(name)] = digest
    return RunRecord(
        schema_version=version,
        run_id=_require(payload, "run_id", str),
        command=_require(payload, "command", str),
        label=_require(payload, "label", str),
        started_at=_require(payload, "started_at", float),
        wall_s=_require(payload, "wall_s", float),
        workers=_require(payload, "workers", int),
        cell_count=_require(payload, "cell_count", int),
        config=dict(raw_config),
        config_digest=_require(payload, "config_digest", str),
        phase_seconds=_float_map(payload, "phase_seconds"),
        cells=tuple(cells),
        factors=_float_map(payload, "factors"),
        fastpath=_fastpath(payload),
        metrics=dict(raw_metrics),
        artifacts=artifacts,
    )


def record_from_json(line: str) -> RunRecord:
    """Parse one ledger line through the strict loader."""
    try:
        payload = json.loads(line)
    except ValueError as error:
        raise RunLogError(f"run record line is not JSON: {error}")
    return record_from_dict(payload)


# ---------------------------------------------------------------------------
# Record builders, one per entry point
# ---------------------------------------------------------------------------

def _run_id(started_at: float, command: str, digest: str) -> str:
    token = f"{started_at!r}|{command}|{digest}"
    return hashlib.sha256(token.encode("utf-8")).hexdigest()[:16]


def _new_record(
    command: str,
    label: str,
    config: Mapping[str, Any],
    wall_s: float,
    clock: Optional[Clock],
    **fields: Any,
) -> RunRecord:
    started_at = (clock if clock is not None else time.time)()
    digest = config_digest(config)
    return RunRecord(
        schema_version=RUNLOG_SCHEMA_VERSION,
        run_id=_run_id(started_at, command, digest),
        command=command,
        label=label,
        started_at=started_at,
        wall_s=wall_s,
        config=dict(config),
        config_digest=digest,
        **fields,
    )


def record_from_runall(
    report: "RunAllReport",
    label: str,
    config: Mapping[str, Any],
    wall_s: float,
    artifacts: Optional[Mapping[str, str]] = None,
    clock: Optional[Clock] = None,
) -> RunRecord:
    """Build the persisted record for one finished ``run-all``.

    Factor keys cover every measured artifact: ``sbr:<vendor>:<size>``
    per Table IV cell, ``obr:<fcdn>:<bcdn>`` per Table V cascade,
    ``ccfc:<vendor>:<size>`` per compression-conversion cell, and
    ``faulted:<vendor>:<size>`` per Table VI row, so two ledger entries
    diff cell-by-cell without re-reading the rendered tables.
    """
    factors: Dict[str, float] = {}
    for row in report.table4:
        for size, factor in row.factors.items():
            factors[f"sbr:{row.vendor}:{size}"] = factor
    for row in report.table5:
        factors[f"obr:{row.fcdn}:{row.bcdn}"] = row.factor
    for row in report.table_ccfc:
        for size, factor in row.factors.items():
            factors[f"ccfc:{row.vendor}:{size}"] = factor
    for row in report.table_faults:
        factors[f"faulted:{row.vendor}:{row.resource_size}"] = row.faulted_factor
    stats = report.fastpath
    fastpath: Optional[Dict[str, Any]] = None
    if stats is not None:
        fastpath = {
            "answered": stats.answered,
            "refused": stats.refused,
            "ineligible": stats.ineligible,
            "hit_rate": stats.hit_rate,
        }
    return _new_record(
        "run-all",
        label,
        config,
        wall_s,
        clock,
        workers=report.workers,
        cell_count=report.cell_count,
        phase_seconds=dict(report.phase_seconds),
        cells=tuple(
            CellRecord(
                label=cell.label,
                experiment=cell.experiment,
                seconds=cell.duration_s,
                ok=cell.ok,
            )
            for cell in report.cells
        ),
        factors=factors,
        fastpath=fastpath,
        metrics=dict(report.metrics),
        artifacts=dict(artifacts) if artifacts is not None else {},
    )


def record_from_analysis(
    report: "AnalysisReport",
    config: Mapping[str, Any],
    wall_s: float,
    clock: Optional[Clock] = None,
) -> RunRecord:
    """Persist one ``repro analyze`` run: every static bound by subject."""
    factors = {
        f"bound:{finding.kind}:{finding.subject}": finding.factor_bound
        for finding in report.findings
        if finding.factor_bound > 0
    }
    return _new_record(
        "analyze",
        "analyze",
        config,
        wall_s,
        clock,
        workers=1,
        cell_count=len(report.findings),
        factors=factors,
    )


def record_from_recommendations(
    report: "RecommendationReport",
    config: Mapping[str, Any],
    wall_s: float,
    clock: Optional[Clock] = None,
) -> RunRecord:
    """Persist one ``repro recommend`` run: chosen residuals by subject."""
    factors: Dict[str, float] = {}
    for recommendation in report.recommendations:
        chosen = recommendation.chosen
        if chosen is not None:
            key = f"residual:{recommendation.kind}:{recommendation.subject}"
            factors[key] = chosen.residual_factor
    return _new_record(
        "recommend",
        "recommend",
        config,
        wall_s,
        clock,
        workers=1,
        cell_count=len(report.recommendations),
        factors=factors,
    )


# ---------------------------------------------------------------------------
# The ledger file
# ---------------------------------------------------------------------------

class RunLedger:
    """An append-only JSONL file of run records.

    Appends are **multi-writer safe**: each record goes down as one
    ``os.write`` of the full line on a raw ``O_APPEND`` descriptor —
    no userspace buffering that could flush half a line — under an
    advisory ``fcntl.flock`` exclusive lock where the platform offers
    one.  ``O_APPEND`` alone keeps independent single writes from
    landing at the same offset; the lock additionally serializes the
    (pathological) short-write continuation loop, so concurrent
    processes interleave whole lines, never torn ones — pinned by the
    multiprocess hammer in ``tests/obs/test_runlog_concurrent.py``.  A
    killed writer leaves at worst one torn final line, which
    :meth:`load` skips (any *other* malformed line raises: a corrupt
    middle means the file was edited, and the strict loader refuses to
    guess).
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)

    def append(self, record: RunRecord) -> RunRecord:
        """Append one record; durably written before returning."""
        payload = (record.to_json() + "\n").encode("utf-8")
        fd = os.open(
            self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644
        )
        try:
            if fcntl is not None:
                try:
                    fcntl.flock(fd, fcntl.LOCK_EX)
                except OSError:  # pragma: no cover - e.g. NFS without locks
                    pass  # advisory only; O_APPEND still applies per write
            view = memoryview(payload)
            while view:
                written = os.write(fd, view)
                view = view[written:]
        finally:
            # Closing the descriptor releases any flock it held.
            os.close(fd)
        return record

    def load(self) -> List[RunRecord]:
        """Every intact record, oldest first (strict; see class docs)."""
        if not self.path.exists():
            return []
        lines = self.path.read_text(encoding="utf-8").split("\n")
        records: List[RunRecord] = []
        for index, line in enumerate(lines):
            if not line.strip():
                continue
            try:
                records.append(record_from_json(line))
            except RunLogError:
                if index == len(lines) - 1:
                    # Torn tail from a killed writer; everything before
                    # it is intact.
                    continue
                raise
        return records

    def resolve(self, ref: str) -> RunRecord:
        """Find one record by index (``0``, ``-1``) or run-id prefix."""
        records = self.load()
        if not records:
            raise RunLogError(f"ledger {self.path} is empty")
        try:
            index = int(ref)
        except ValueError:
            matches = [r for r in records if r.run_id.startswith(ref)]
            if not matches:
                raise RunLogError(f"no run with id prefix {ref!r} in {self.path}")
            if len(matches) > 1:
                raise RunLogError(
                    f"run id prefix {ref!r} is ambiguous "
                    f"({len(matches)} matches in {self.path})"
                )
            return matches[0]
        try:
            return records[index]
        except IndexError:
            raise RunLogError(
                f"run index {index} out of range "
                f"({len(records)} record(s) in {self.path})"
            )

    def __len__(self) -> int:
        return len(self.load())


# ---------------------------------------------------------------------------
# Cross-run diffing (the regression gate)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CellDelta:
    """One cell's timing in both runs."""

    label: str
    experiment: str
    before_s: float
    after_s: float

    @property
    def delta_s(self) -> float:
        return self.after_s - self.before_s

    @property
    def ratio(self) -> float:
        """``after / before`` (``inf`` when before was zero and after not)."""
        if self.before_s > 0:
            return self.after_s / self.before_s
        return float("inf") if self.after_s > 0 else 1.0


@dataclass(frozen=True)
class FactorDelta:
    """One amplification/bound factor that differs between two runs."""

    key: str
    before: float
    after: float

    @property
    def relative(self) -> float:
        if self.before != 0:
            return (self.after - self.before) / self.before
        return float("inf") if self.after != 0 else 0.0


@dataclass(frozen=True)
class RunDiff:
    """Everything that changed between two ledger entries.

    The timing gate flags a cell only when **both** tripwires fire: the
    slowdown ratio exceeds ``1 + threshold`` *and* the cell's after-time
    exceeds ``min_seconds`` — sub-threshold cells are too noisy to gate
    on and too cheap to matter.  Factors are deterministic simulation
    outputs, so *any* drift beyond ``factor_tolerance`` (relative) is a
    correctness regression, in either direction.
    """

    before: RunRecord
    after: RunRecord
    cells: Tuple[CellDelta, ...]
    added_cells: Tuple[str, ...]
    removed_cells: Tuple[str, ...]
    factor_deltas: Tuple[FactorDelta, ...]
    added_factors: Tuple[str, ...]
    removed_factors: Tuple[str, ...]
    threshold: float
    min_seconds: float
    factor_tolerance: float

    def timing_regressions(self) -> Tuple[CellDelta, ...]:
        """Cells slower than both tripwires allow, worst first."""
        flagged = [
            delta
            for delta in self.cells
            if delta.after_s > self.min_seconds
            and delta.ratio > 1.0 + self.threshold
        ]
        return tuple(sorted(flagged, key=lambda d: -d.delta_s))

    def factor_regressions(self) -> Tuple[FactorDelta, ...]:
        """Factors that drifted beyond tolerance, largest drift first."""
        flagged = [
            delta
            for delta in self.factor_deltas
            if abs(delta.relative) > self.factor_tolerance
        ]
        return tuple(sorted(flagged, key=lambda d: -abs(d.relative)))

    def gate_failures(self) -> List[str]:
        """Human-readable gate violations (empty means the gate passes)."""
        failures = [
            f"cell {delta.label} slowed {delta.ratio:.2f}x "
            f"({delta.before_s:.3f}s -> {delta.after_s:.3f}s)"
            for delta in self.timing_regressions()
        ]
        failures.extend(
            f"factor {delta.key} drifted {delta.before:.6g} -> {delta.after:.6g} "
            f"({delta.relative:+.2%})"
            for delta in self.factor_regressions()
        )
        return failures

    @property
    def ok(self) -> bool:
        return not self.gate_failures()


def diff_runs(
    before: RunRecord,
    after: RunRecord,
    threshold: float = 0.5,
    min_seconds: float = 0.1,
    factor_tolerance: float = 1e-6,
) -> RunDiff:
    """Compare two run records cell-by-cell and factor-by-factor."""
    if threshold < 0:
        raise RunLogError(f"threshold must be >= 0, got {threshold}")
    if min_seconds < 0:
        raise RunLogError(f"min-seconds must be >= 0, got {min_seconds}")
    before_cells = {cell.label: cell for cell in before.cells}
    after_cells = {cell.label: cell for cell in after.cells}
    shared = sorted(set(before_cells) & set(after_cells))
    cells = tuple(
        CellDelta(
            label=label,
            experiment=after_cells[label].experiment,
            before_s=before_cells[label].seconds,
            after_s=after_cells[label].seconds,
        )
        for label in shared
    )
    shared_factors = sorted(set(before.factors) & set(after.factors))
    factor_deltas = tuple(
        FactorDelta(key=key, before=before.factors[key], after=after.factors[key])
        for key in shared_factors
        if before.factors[key] != after.factors[key]
    )
    return RunDiff(
        before=before,
        after=after,
        cells=cells,
        added_cells=tuple(sorted(set(after_cells) - set(before_cells))),
        removed_cells=tuple(sorted(set(before_cells) - set(after_cells))),
        factor_deltas=factor_deltas,
        added_factors=tuple(sorted(set(after.factors) - set(before.factors))),
        removed_factors=tuple(sorted(set(before.factors) - set(after.factors))),
        threshold=threshold,
        min_seconds=min_seconds,
        factor_tolerance=factor_tolerance,
    )
