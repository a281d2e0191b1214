"""Shared benchmark helpers.

Every ``bench_*`` module regenerates one of the paper's tables or
figures.  Besides timing the regeneration with pytest-benchmark, each
bench renders its artifact to ``benchmarks/output/`` so a run leaves the
full paper-vs-measured record on disk (EXPERIMENTS.md links there).

The sweep benches regenerate through :mod:`repro.runner` (worker count
from ``REPRO_BENCH_WORKERS``, else the cpu count; the runner's own
``REPRO_RUNNER_SERIAL=1`` forces one in-process worker) and assemble
rows with the ``*_from_results`` functions of :mod:`repro.reporting`.
Results are identical for every worker count (see
``tests/runner/test_equivalence.py``).
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Any, Dict

import pytest

OUTPUT_DIR = Path(__file__).parent / "output"

#: Worker count override for the bench runner.
BENCH_WORKERS_ENV = "REPRO_BENCH_WORKERS"


@pytest.fixture(scope="session")
def output_dir() -> Path:
    OUTPUT_DIR.mkdir(exist_ok=True)
    return OUTPUT_DIR


def benchmark_runner() -> Any:
    """The GridRunner sweeps regenerate through."""
    from repro.runner import GridRunner

    workers_env = os.environ.get(BENCH_WORKERS_ENV, "").strip()
    workers = int(workers_env) if workers_env else None
    return GridRunner(workers=workers)


def run_grid(grid: Any) -> Dict[Any, Any]:
    """Run ``grid`` on :func:`benchmark_runner`; values by cell key.

    The first failed cell re-raises, so a broken sweep fails the bench.
    """
    result = benchmark_runner().run(grid)
    result.values()
    return result.value_by_key()


def save_artifact(output_dir: Path, name: str, content: str) -> None:
    """Write one rendered table/figure and echo it to the terminal.

    The write is atomic (temp file + ``os.replace``) so concurrent bench
    processes — ``pytest -n`` or parallel runner workers sharing the
    output directory — never interleave partial artifacts.
    """
    path = output_dir / name
    fd, tmp_name = tempfile.mkstemp(
        prefix=f".{name}.", suffix=".tmp", dir=str(output_dir)
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(content)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    print(f"\n=== {name} ===\n{content}")
