"""Shared benchmark helpers.

Every ``bench_*`` module regenerates one of the paper's tables or
figures.  Besides timing the regeneration with pytest-benchmark, each
bench renders its artifact to ``benchmarks/output/`` so a run leaves the
full paper-vs-measured record on disk (EXPERIMENTS.md links there).

The sweep benches regenerate through :mod:`repro.runner` and read
their rows straight from the grid values by cell key.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Any, Dict

import pytest

OUTPUT_DIR = Path(__file__).parent / "output"


@pytest.fixture(autouse=True)
def cold_memos() -> None:
    """Start every bench and test cold: no memo table (the shared
    mitigated profiles included) carries answers over from the one
    before, so a test that counts or traces work sees it done."""
    from repro.obs.memo import clear_all_memos

    clear_all_memos()

@pytest.fixture(scope="session")
def output_dir() -> Path:
    OUTPUT_DIR.mkdir(exist_ok=True)
    return OUTPUT_DIR


def benchmark_runner() -> Any:
    """The GridRunner sweeps regenerate through."""
    from repro.runner.executor import GridRunner

    return GridRunner()


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
    processes — ``pytest -n`` workers sharing the output directory —
    never interleave partial artifacts.
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
