#!/usr/bin/env python
"""CI gate over the persisted benchmark trajectory (BENCH_runall*.json).

Given a fast-path observation and a sim-only (--exact) observation from
this run, plus the two baselines committed at the repo root
(``BENCH_runall.json`` for the fast path, ``BENCH_runall_exact.json``
for --exact), enforce:

1. the fast-path hit rate has not dropped below the committed baseline
   (deterministic cell counts, so equality is expected — any drop means
   an engine started refusing cells it used to answer);
2. neither mode's wall clock has regressed more than MAX_WALL_REGRESSION
   times its own committed baseline (a coarse tripwire; machines differ,
   so the bound is deliberately loose);
3. neither mode's derived "measure" phase — the seconds spent answering
   SBR/OBR/CCFC measurement cells — has regressed more than
   MAX_WALL_REGRESSION times its own committed baseline;
4. neither mode's "static" phase — the Table VII recommendation
   derivation, the largest quick-mode phase — has regressed more than
   MAX_WALL_REGRESSION times its own committed baseline;
5. both modes answered the same number of cells, and that number equals
   both baselines' (the grid is fixed, so any difference means a mode
   dropped or gained cells).

The fast/exact ``measure`` ratio is printed for information only: both
modes answer every measurement cell with the same wire simulation (the
fast path in-process, --exact through the grid runner), so the ratio
does not say which path is healthy.

All four files must carry the current benchmark schema version
(:data:`repro.reporting.bench.BENCH_SCHEMA_VERSION`): phases and counts
from older builds are not comparable.  A stale committed baseline fails
here with a pointer to the regeneration commands instead of silently
gating against incomparable numbers.

Usage:
    python scripts/check_bench.py --current BENCH.json --exact BENCH_exact.json \
        --baseline BENCH_runall.json --exact-baseline BENCH_runall_exact.json
"""

from __future__ import annotations

import argparse
import sys
from typing import List

from repro.reporting.bench import (
    BENCH_SCHEMA_VERSION,
    BenchReport,
    BenchSchemaError,
    load_bench,
)

#: Wall-clock, measure- and static-phase tripwire versus the committed
#: baselines.
MAX_WALL_REGRESSION = 2.0


def _tripwire(what: str, current: float, baseline: float) -> List[str]:
    if baseline > 0 and current > MAX_WALL_REGRESSION * baseline:
        return [
            f"{what} regressed >{MAX_WALL_REGRESSION:.0f}x: "
            f"{current:.3f}s vs baseline {baseline:.3f}s"
        ]
    return []


def check(
    current: BenchReport,
    exact: BenchReport,
    baseline: BenchReport,
    exact_baseline: BenchReport,
) -> int:
    failures: List[str] = []

    if current.fastpath is None:
        failures.append("current run has no fast-path stats (was it --exact?)")
    elif current.hit_rate < baseline.hit_rate:
        failures.append(
            f"fast-path hit rate dropped: {current.hit_rate:.3f} < "
            f"baseline {baseline.hit_rate:.3f}"
        )
    if exact.fastpath is not None:
        failures.append("exact run has fast-path stats (was it run without --exact?)")

    for mode, run, base in (("fast", current, baseline), ("exact", exact, exact_baseline)):
        failures += _tripwire(f"{mode} wall clock", run.wall_s, base.wall_s)
        if run.measure_s <= 0:
            failures.append(f"{mode} run has no measure phase")
        failures += _tripwire(f"{mode} measure phase", run.measure_s, base.measure_s)
        failures += _tripwire(
            f"{mode} static phase",
            run.phases.get("static", 0.0),
            base.phases.get("static", 0.0),
        )

    counts = {
        "fast": current.cell_count,
        "exact": exact.cell_count,
        "baseline": baseline.cell_count,
        "exact baseline": exact_baseline.cell_count,
    }
    if len(set(counts.values())) > 1:
        failures.append(
            "cell counts differ: "
            + ", ".join(f"{name}={count}" for name, count in counts.items())
        )

    if current.measure_s > 0:
        print(
            f"measure: fast {current.measure_s:.3f}s "
            f"(baseline {baseline.measure_s:.3f}s), "
            f"exact {exact.measure_s:.3f}s "
            f"(baseline {exact_baseline.measure_s:.3f}s); "
            f"exact/fast ratio {exact.measure_s / current.measure_s:.2f}x (informational)"
        )
    print(
        f"hit rate: {current.hit_rate:.3f} (baseline {baseline.hit_rate:.3f}); "
        f"wall: fast {current.wall_s:.2f}s (baseline {baseline.wall_s:.2f}s), "
        f"exact {exact.wall_s:.2f}s (baseline {exact_baseline.wall_s:.2f}s); "
        f"cells: {current.cell_count}"
    )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--current", required=True, help="fast-path BENCH file")
    parser.add_argument("--exact", required=True, help="sim-only BENCH file")
    parser.add_argument("--baseline", required=True, help="committed fast-path baseline")
    parser.add_argument(
        "--exact-baseline", required=True, help="committed sim-only baseline"
    )
    args = parser.parse_args(argv)
    try:
        current = load_bench(args.current)
        exact = load_bench(args.exact)
        baseline = load_bench(args.baseline)
        exact_baseline = load_bench(args.exact_baseline)
    except BenchSchemaError as error:
        print(f"FAIL: {error}", file=sys.stderr)
        print(
            "hint: if a committed baseline predates schema version "
            f"{BENCH_SCHEMA_VERSION}, regenerate both with:\n"
            "  PYTHONPATH=src python -m repro run-all --quick "
            "--no-progress --bench BENCH_runall.json\n"
            "  PYTHONPATH=src python -m repro run-all --quick "
            "--no-progress --exact --bench BENCH_runall_exact.json",
            file=sys.stderr,
        )
        return 1
    return check(current, exact, baseline, exact_baseline)


if __name__ == "__main__":
    raise SystemExit(main())
