#!/usr/bin/env python
"""CI gate over the persisted benchmark trajectory (BENCH_runall.json).

Given the fast-path observation from this run, the sim-only (--exact)
observation from the same machine/job, and the baseline committed at the
repo root, enforce:

1. the fast-path hit rate has not dropped below the committed baseline
   (deterministic cell counts, so equality is expected — any drop means
   an engine started refusing cells it used to answer);
2. the run's wall clock has not regressed more than MAX_WALL_REGRESSION
   times the committed baseline (a coarse tripwire; machines differ, so
   the bound is deliberately loose);
3. answering the SBR/OBR/CCFC measurement cells is at least
   MIN_MEASURE_SPEEDUP times faster through the fast path than through
   wire-level simulation, compared within this job via the derived
   "measure" phase — the like-for-like basis (Fig 7 flood cells simulate
   identically in both modes).

All three files must carry the current benchmark schema version
(:data:`repro.reporting.bench.BENCH_SCHEMA_VERSION`): phases and counts
from older builds are not comparable.  A stale committed baseline fails
here with a pointer to the regeneration command instead of silently
gating against incomparable numbers.

Usage:
    python scripts/check_bench.py --current BENCH.json --exact BENCH_exact.json \
        --baseline BENCH_runall.json
"""

from __future__ import annotations

import argparse
import sys

from repro.reporting.bench import (
    BENCH_SCHEMA_VERSION,
    BenchReport,
    BenchSchemaError,
    load_bench,
)

#: The acceptance floor: fast path must answer the measurement cells at
#: least this many times faster than simulating them.
MIN_MEASURE_SPEEDUP = 5.0

#: Wall-clock tripwire versus the committed baseline.
MAX_WALL_REGRESSION = 2.0


def check(current: BenchReport, exact: BenchReport, baseline: BenchReport) -> int:
    failures = []

    if current.fastpath is None:
        failures.append("current run has no fast-path stats (was it --exact?)")
    elif current.hit_rate < baseline.hit_rate:
        failures.append(
            f"fast-path hit rate dropped: {current.hit_rate:.3f} < "
            f"baseline {baseline.hit_rate:.3f}"
        )

    if baseline.wall_s > 0 and current.wall_s > MAX_WALL_REGRESSION * baseline.wall_s:
        failures.append(
            f"wall clock regressed >{MAX_WALL_REGRESSION:.0f}x: "
            f"{current.wall_s:.2f}s vs baseline {baseline.wall_s:.2f}s"
        )

    fast_measure = current.measure_s
    exact_measure = exact.measure_s
    if fast_measure <= 0 or exact_measure <= 0:
        failures.append(
            f"missing measure phases (fast={fast_measure}, exact={exact_measure})"
        )
    else:
        speedup = exact_measure / fast_measure
        print(
            f"measurement-cell speedup: {speedup:.1f}x "
            f"(exact {exact_measure:.3f}s / fast {fast_measure:.3f}s)"
        )
        if speedup < MIN_MEASURE_SPEEDUP:
            failures.append(
                f"fast path is only {speedup:.1f}x faster than simulation "
                f"on measurement cells (floor: {MIN_MEASURE_SPEEDUP:.0f}x)"
            )

    print(
        f"hit rate: {current.hit_rate:.3f} (baseline {baseline.hit_rate:.3f}); "
        f"wall: {current.wall_s:.2f}s (baseline {baseline.wall_s:.2f}s)"
    )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--current", required=True, help="fast-path BENCH file")
    parser.add_argument("--exact", required=True, help="sim-only BENCH file")
    parser.add_argument("--baseline", required=True, help="committed baseline")
    args = parser.parse_args(argv)
    try:
        current = load_bench(args.current)
        exact = load_bench(args.exact)
        baseline = load_bench(args.baseline)
    except BenchSchemaError as error:
        print(f"FAIL: {error}", file=sys.stderr)
        print(
            "hint: if the committed baseline predates schema version "
            f"{BENCH_SCHEMA_VERSION}, regenerate it with:\n"
            "  PYTHONPATH=src python -m repro run-all --quick --workers 1 "
            "--no-progress --bench BENCH_runall.json",
            file=sys.stderr,
        )
        return 1
    return check(current, exact, baseline)


if __name__ == "__main__":
    raise SystemExit(main())
