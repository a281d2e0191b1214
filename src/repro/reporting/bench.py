"""Schema-versioned benchmark persistence (``BENCH_runall.json``).

Speed claims need a trajectory, not an anecdote: every ``repro run-all``
(and the run-all benchmark in ``benchmarks/bench_micro_substrate.py``)
writes a :class:`BenchReport` JSON file recording wall clock, cells per
second, the fast-path hit rate, and a per-phase breakdown.  CI uploads
the file as an artifact and gates on it against the baseline committed
at the repo root, so a PR that silently regresses the fast path fails
before it merges.

The file is versioned (:data:`BENCH_SCHEMA_VERSION`) and loaded through
a typed parser that rejects unknown versions and malformed payloads —
a CI gate comparing two files it merely *hopes* are shaped right would
rot the first time the shape changes.

Phase vocabulary (written by :func:`repro.runner.runall.run_all`):

* ``fastpath`` — planning + fast-path answering of eligible cells;
* ``grid`` — wire-level simulation of the residual cells;
* ``static`` — the Table VII recommendation derivation;
* ``measure`` (derived here) — everything spent answering measurement
  cells (every attack family's, and the faulted SBR cells):
  ``fastpath`` plus the per-cell seconds of measurement cells the grid
  runner simulated.  Fast-path answers are
  counted once, inside ``fastpath``.  The Fig 7 flood cells are
  time-stepped bandwidth simulations outside the fast path's scope and
  cost the same in both modes, so they stay out; CI bounds each mode's
  ``measure`` against its own committed baseline.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Union

from repro.analysis.families import FAMILIES
from repro.errors import ReproError
from repro.runner.runall import RunAllReport

#: Current on-disk schema version; bump on any shape change.
#: Version 2: the run-all grid gained CCFC cells, so cell counts,
#: phase totals, and the ``measure`` derivation all shifted.
#: Version 3: the sampled re-simulation is gone, taking the
#: ``validate`` phase and the ``fastpath.validated`` count with it.
#: Version 4: ``measure`` no longer counts fast-path answers twice
#: (once in ``fastpath``, again as per-cell seconds).
#: Version 5: OBR cells are simulated, not calibrated, so the
#: ``fastpath.calibration_runs`` count is gone.
#: Files written by older builds are not comparable and are rejected.
BENCH_SCHEMA_VERSION = 5

#: The canonical file name, both in run-all output dirs and at the repo
#: root (the committed CI baseline).
BENCH_FILENAME = "BENCH_runall.json"

class BenchSchemaError(ReproError):
    """A benchmark file failed schema or type validation."""


@dataclass(frozen=True)
class BenchFastPath:
    """Fast-path counters persisted alongside the timings."""

    answered: int
    refused: int
    ineligible: int
    hit_rate: float


@dataclass(frozen=True)
class BenchReport:
    """One benchmark observation, ready to serialize."""

    schema_version: int
    #: What was measured, e.g. ``run-all-quick`` / ``run-all-quick-exact``.
    label: str
    #: ``fast`` (default path) or ``exact`` (sim-only reference).
    mode: str
    #: End-to-end wall seconds for the run being described.
    wall_s: float
    cell_count: int
    cells_per_s: float
    workers: int
    #: Phase name -> wall seconds (see the module docstring vocabulary).
    phases: Dict[str, float] = field(default_factory=dict)
    fastpath: Optional[BenchFastPath] = None

    @property
    def measure_s(self) -> float:
        """Seconds spent answering measurement cells (CI gate basis)."""
        return self.phases.get("measure", 0.0)

    @property
    def hit_rate(self) -> float:
        return self.fastpath.hit_rate if self.fastpath is not None else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def write(self, path: Union[str, Path]) -> Path:
        target = Path(path)
        if target.is_dir():
            target = target / BENCH_FILENAME
        target.write_text(self.to_json() + "\n", encoding="utf-8")
        return target


def _require(payload: Mapping[str, Any], key: str, kind: type) -> Any:
    if key not in payload:
        raise BenchSchemaError(f"benchmark payload is missing {key!r}")
    value = payload[key]
    # bool is an int subclass; an accidental true/false in a count field
    # should fail, not pass.
    if isinstance(value, bool) or not isinstance(value, kind):
        if kind is float and isinstance(value, int):
            return float(value)
        raise BenchSchemaError(
            f"benchmark field {key!r} must be {kind.__name__}, "
            f"got {type(value).__name__}"
        )
    return value


def bench_from_dict(payload: Mapping[str, Any]) -> BenchReport:
    """Validate and type a raw JSON payload into a :class:`BenchReport`."""
    if not isinstance(payload, Mapping):
        raise BenchSchemaError(
            f"benchmark payload must be an object, got {type(payload).__name__}"
        )
    version = _require(payload, "schema_version", int)
    if version != BENCH_SCHEMA_VERSION:
        raise BenchSchemaError(
            f"unknown benchmark schema version {version} "
            f"(this build reads version {BENCH_SCHEMA_VERSION})"
        )
    raw_phases = payload.get("phases", {})
    if not isinstance(raw_phases, Mapping):
        raise BenchSchemaError("benchmark field 'phases' must be an object")
    phases: Dict[str, float] = {}
    for name, seconds in raw_phases.items():
        if isinstance(seconds, bool) or not isinstance(seconds, (int, float)):
            raise BenchSchemaError(f"phase {name!r} must be a number")
        phases[str(name)] = float(seconds)
    raw_fastpath = payload.get("fastpath")
    fastpath: Optional[BenchFastPath] = None
    if raw_fastpath is not None:
        if not isinstance(raw_fastpath, Mapping):
            raise BenchSchemaError("benchmark field 'fastpath' must be an object")
        fastpath = BenchFastPath(
            answered=_require(raw_fastpath, "answered", int),
            refused=_require(raw_fastpath, "refused", int),
            ineligible=_require(raw_fastpath, "ineligible", int),
            hit_rate=_require(raw_fastpath, "hit_rate", float),
        )
    return BenchReport(
        schema_version=version,
        label=_require(payload, "label", str),
        mode=_require(payload, "mode", str),
        wall_s=_require(payload, "wall_s", float),
        cell_count=_require(payload, "cell_count", int),
        cells_per_s=_require(payload, "cells_per_s", float),
        workers=_require(payload, "workers", int),
        phases=phases,
        fastpath=fastpath,
    )


def load_bench(path: Union[str, Path]) -> BenchReport:
    """Load and validate a benchmark file."""
    source = Path(path)
    if source.is_dir():
        source = source / BENCH_FILENAME
    try:
        payload = json.loads(source.read_text(encoding="utf-8"))
    except ValueError as error:
        raise BenchSchemaError(f"benchmark file {source} is not JSON: {error}")
    return bench_from_dict(payload)


def bench_from_runall(
    report: RunAllReport, label: str, wall_s: Optional[float] = None
) -> BenchReport:
    """Build the persisted observation from one finished run-all report.

    ``wall_s`` is the caller-measured end-to-end wall clock; it defaults
    to the sum of the recorded phases (answering + static derivation),
    which excludes process startup and artifact writing.
    """
    phases = dict(report.phase_seconds)
    # Measurement cells: every attack family's, and the faulted SBR cells.
    measured = [family.name for family in FAMILIES] + ["sbr-faults"]
    phases["measure"] = phases.get("fastpath", 0.0) + sum(
        report.simulated_seconds_by_experiment.get(name, 0.0) for name in measured
    )
    wall = wall_s if wall_s is not None else sum(report.phase_seconds.values())
    stats = report.fastpath
    return BenchReport(
        schema_version=BENCH_SCHEMA_VERSION,
        label=label,
        mode="fast" if stats is not None else "exact",
        wall_s=wall,
        cell_count=report.cell_count,
        cells_per_s=(report.cell_count / wall) if wall > 0 else 0.0,
        workers=1,
        phases=phases,
        fastpath=(
            BenchFastPath(
                answered=stats.answered,
                refused=stats.refused,
                ineligible=stats.ineligible,
                hit_rate=stats.hit_rate,
            )
            if stats is not None
            else None
        ),
    )
