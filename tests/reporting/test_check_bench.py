"""The CI benchmark gate (``scripts/check_bench.py``) on synthetic reports.

Each failure path is driven by one field moved past its bound in an
otherwise passing set of four observations: the fast and exact runs of
this job and their two committed baselines.
"""

import importlib.util
import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.reporting.bench import (
    BENCH_SCHEMA_VERSION,
    BenchFastPath,
    BenchReport,
)

SCRIPT = Path(__file__).resolve().parents[2] / "scripts" / "check_bench.py"


@pytest.fixture(scope="module")
def check_bench():
    spec = importlib.util.spec_from_file_location("check_bench", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _report(mode, wall_s=0.25, measure_s=0.04, cell_count=57, hit_rate=54 / 57):
    fastpath = None
    if mode == "fast":
        fastpath = BenchFastPath(
            answered=54,
            refused=0,
            ineligible=3,
            hit_rate=hit_rate,
        )
    return BenchReport(
        schema_version=BENCH_SCHEMA_VERSION,
        label="run-all-quick" if mode == "fast" else "run-all-quick-exact",
        mode=mode,
        wall_s=wall_s,
        cell_count=cell_count,
        cells_per_s=cell_count / wall_s,
        workers=1,
        phases={"grid": 0.08, "static": 0.13, "measure": measure_s},
        fastpath=fastpath,
    )


FAST = _report("fast")
EXACT = _report("exact", wall_s=0.3, measure_s=0.05)


def _run(check_bench, current=FAST, exact=EXACT, baseline=FAST, exact_baseline=EXACT):
    return check_bench.check(current, exact, baseline, exact_baseline)


def test_passing_case(check_bench, capsys):
    assert _run(check_bench) == 0
    out = capsys.readouterr()
    assert "FAIL" not in out.err
    # The fast/exact ratio is reported, not gated.
    assert "exact/fast ratio 1.25x (informational)" in out.out


def test_slower_exact_path_alone_does_not_fail(check_bench):
    # The old >=5x speedup floor is gone: an exact run slower than the
    # fast one, within its own baseline's bound, passes.
    exact = replace(EXACT, phases={**EXACT.phases, "measure": 0.09})
    assert _run(check_bench, exact=exact) == 0


@pytest.mark.parametrize(
    "overrides, message",
    [
        (
            {"current": _report("fast", hit_rate=53 / 57)},
            "fast-path hit rate dropped",
        ),
        (
            {"current": _report("exact")},
            "current run has no fast-path stats",
        ),
        (
            {"exact": _report("fast", wall_s=0.3, measure_s=0.05)},
            "exact run has fast-path stats",
        ),
        (
            {"current": _report("fast", wall_s=0.51)},
            "fast wall clock regressed",
        ),
        (
            {"exact": _report("exact", wall_s=0.61, measure_s=0.05)},
            "exact wall clock regressed",
        ),
        (
            {"current": _report("fast", measure_s=0.081)},
            "fast measure phase regressed",
        ),
        (
            {"exact": _report("exact", wall_s=0.3, measure_s=0.101)},
            "exact measure phase regressed",
        ),
        (
            {"current": _report("fast", measure_s=0.0)},
            "fast run has no measure phase",
        ),
        (
            {"exact": _report("exact", wall_s=0.3, measure_s=0.05, cell_count=56)},
            "cell counts differ",
        ),
        (
            {"exact_baseline": _report("exact", wall_s=0.3, measure_s=0.05, cell_count=58)},
            "cell counts differ",
        ),
    ],
    ids=[
        "hit-rate-drop",
        "fast-run-without-fastpath",
        "exact-run-with-fastpath",
        "fast-wall-tripwire",
        "exact-wall-tripwire",
        "fast-measure-tripwire",
        "exact-measure-tripwire",
        "missing-measure",
        "exact-cell-count",
        "baseline-cell-count",
    ],
)
def test_failure_paths(check_bench, capsys, overrides, message):
    assert _run(check_bench, **overrides) == 1
    assert f"FAIL: {message}" in capsys.readouterr().err


def test_stale_schema_fails_with_regeneration_hint(check_bench, tmp_path, capsys):
    paths = {}
    for name, report in (
        ("current", FAST),
        ("exact", EXACT),
        ("baseline", FAST),
        ("exact-baseline", EXACT),
    ):
        paths[name] = report.write(tmp_path / f"{name}.json")
    argv = [item for name, path in paths.items() for item in (f"--{name}", str(path))]
    assert check_bench.main(argv) == 0

    stale = json.loads(paths["exact-baseline"].read_text(encoding="utf-8"))
    stale["schema_version"] = BENCH_SCHEMA_VERSION - 1
    paths["exact-baseline"].write_text(json.dumps(stale), encoding="utf-8")
    capsys.readouterr()
    assert check_bench.main(argv) == 1
    err = capsys.readouterr().err
    assert "unknown benchmark schema version" in err
    assert "--exact --bench BENCH_runall_exact.json" in err


def test_committed_baselines_load_and_agree(check_bench):
    # The two committed baselines must be current-schema, of the right
    # modes, and about the same grid — else every CI run fails.
    root = SCRIPT.parents[1]
    fast = check_bench.load_bench(root / "BENCH_runall.json")
    exact = check_bench.load_bench(root / "BENCH_runall_exact.json")
    assert fast.mode == "fast" and exact.mode == "exact"
    assert fast.cell_count == exact.cell_count
    assert check_bench.check(fast, exact, fast, exact) == 0
