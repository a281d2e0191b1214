"""Command-line interface: ``python -m repro <command>``.

Commands map one-to-one onto the paper's experiments:

* ``vendors`` — list the 13 modeled CDNs;
* ``sbr`` — run the SBR attack against one vendor (Table IV cell);
* ``obr`` — run the OBR attack through one cascade (Table V row);
* ``survey`` — regenerate the feasibility tables (Tables I–III);
* ``flood`` — the bandwidth experiment for one m (Fig 7 row);
* ``economics`` — project a campaign's victim cost (§V-E).
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.purity import BaselineEntry
    from repro.reporting.render import Table

# Each command imports what only it runs, so a command loads no more
# of the package than it uses (``repro serve`` never loads the flood,
# the survey, the economics model or the table renderer, and the parser
# loads no traffic simulator).
from repro.analysis.classify import MAX_FLOOD_M, MAX_OVERLAPS
from repro.cdn.vendors import all_vendor_names, profile_class
from repro.errors import ReproError, UsageError

MB = 1 << 20


def _non_negative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return value


def _flood_intensity(text: str) -> int:
    value = _non_negative_int(text)
    if value > MAX_FLOOD_M:
        raise argparse.ArgumentTypeError(
            f"expected an integer <= {MAX_FLOOD_M}, got {text!r}"
        )
    return value


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected an integer > 0, got {text!r}")
    return value


def _overlap_count(text: str) -> int:
    value = _positive_int(text)
    if value > MAX_OVERLAPS:
        raise argparse.ArgumentTypeError(
            f"expected an integer <= {MAX_OVERLAPS}, got {text!r}"
        )
    return value


def _positive_finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value) or value <= 0:
        raise argparse.ArgumentTypeError(f"expected a finite number > 0, got {text!r}")
    return value


def _add_size_arguments(parser: argparse.ArgumentParser, use: str) -> None:
    """Each attack family's resource size flag, which ``analyze`` and
    ``recommend`` bound at."""
    from repro.analysis.families import FAMILIES

    for family in FAMILIES:
        unit = "MB" if family.size_unit == MB else "bytes"
        default = family.default_size // family.size_unit
        parser.add_argument(
            family.size_flag, type=_positive_int, default=default,
            help=f"{family.name.upper()} resource size in {unit} {use} "
                 f"(default: {default})",
        )


def _size_flags(args: argparse.Namespace) -> Dict[str, int]:
    """The size flags as given, by argparse dest, in registry order (the
    run ledger's config)."""
    from repro.analysis.families import FAMILIES

    dests = (family.size_flag.lstrip("-").replace("-", "_") for family in FAMILIES)
    return {dest: getattr(args, dest) for dest in dests}


def _family_sizes(args: argparse.Namespace) -> Dict[str, int]:
    """Each family's resource size in bytes, by its size keyword."""
    from repro.analysis.families import FAMILIES

    flags = _size_flags(args).values()
    return {
        family.size_kwarg: value * family.size_unit
        for family, value in zip(FAMILIES, flags)
    }


def _size_labels(args: argparse.Namespace) -> List[Tuple[str, str]]:
    """``("10MB", "SBR")`` per family: each size as its flag gave it."""
    from repro.analysis.families import FAMILIES

    return [
        (f"{value}{'MB' if family.size_unit == MB else 'B'}", family.name.upper())
        for family, value in zip(FAMILIES, _size_flags(args).values())
    ]


def _build_parser(command: Optional[str]) -> argparse.ArgumentParser:
    """The parser, with the family size flags on ``command`` only when it
    is ``analyze`` or ``recommend``: the flags come from the family
    registry, which other commands need not load."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="RangeAmp attack simulator (DSN 2020 reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("vendors", help="list the modeled CDN vendors")

    sbr = commands.add_parser("sbr", help="run the Small Byte Range attack")
    sbr.add_argument("vendor", choices=all_vendor_names())
    sbr.add_argument(
        "--size-mb", type=_positive_int, default=10, help="resource size in MB"
    )
    sbr.add_argument(
        "--rounds", type=_positive_int, default=1, help="attack rounds to send"
    )

    obr = commands.add_parser("obr", help="run the Overlapping Byte Ranges attack")
    obr.add_argument("fcdn", choices=all_vendor_names())
    obr.add_argument("bcdn", choices=all_vendor_names())
    obr.add_argument(
        "--overlaps", type=_overlap_count, default=None,
        help=f"overlap count n, 1..{MAX_OVERLAPS} (default: search the maximum)",
    )

    commands.add_parser(
        "survey", help="probe every vendor and print Tables I-III"
    )

    flood = commands.add_parser("flood", help="bandwidth experiment (Fig 7)")
    flood.add_argument(
        "--m", type=_flood_intensity, default=12,
        help=f"attack requests per second (0..{MAX_FLOOD_M})",
    )
    flood.add_argument("--vendor", default="cloudflare", choices=all_vendor_names())
    flood.add_argument("--uplink-mbps", type=_positive_finite_float, default=1000.0)

    economics = commands.add_parser(
        "economics", help="project a campaign's victim cost"
    )
    economics.add_argument("attack", choices=["sbr", "obr"])
    economics.add_argument("vendor", help="vendor, or fcdn:bcdn for obr")
    economics.add_argument("--size-mb", type=_positive_int, default=10)
    economics.add_argument("--rps", type=_positive_finite_float, default=10.0)
    economics.add_argument("--hours", type=_positive_finite_float, default=1.0)

    scenario = commands.add_parser(
        "scenario", help="run a JSON scenario file of experiments"
    )
    scenario.add_argument("path", help="path to the scenario JSON")

    analyze = commands.add_parser(
        "analyze",
        help="statically audit every vendor and cascade (no traffic simulated)",
    )
    analyze.add_argument(
        "--format", choices=["table", "json"], default="table",
        help="output format (default: table)",
    )
    if command == "analyze":
        _add_size_arguments(analyze, "the bounds assume")
    analyze.add_argument(
        "--with-retries", action="store_true",
        help="also print the retry-aware SBR bound (clean bound scaled by "
             "each vendor's back-to-origin attempt budget)",
    )
    analyze.add_argument(
        "--runlog", nargs="?", const="runlog.jsonl", default=None,
        metavar="PATH",
        help="append a run record (static bounds by subject) to this JSONL "
             "ledger (default PATH: runlog.jsonl)",
    )

    recommend = commands.add_parser(
        "recommend",
        help="recommend the cheapest sufficient mitigation per vulnerable "
             "finding, with residual worst-case bounds",
    )
    recommend.add_argument(
        "--format", choices=["table", "json"], default="table",
        help="output format (default: table)",
    )
    recommend.add_argument(
        "--threshold", type=float, default=None, metavar="F",
        help="residual factor a mitigation must stay under to qualify "
             "(default: 10.0, the low-severity boundary)",
    )
    if command == "recommend":
        _add_size_arguments(recommend, "the residual bounds assume")
    recommend.add_argument(
        "--with-retries", action="store_true",
        help="also report the retry-aware residual factor per option "
             "(informational; sufficiency is judged on the clean residual)",
    )
    recommend.add_argument(
        "--verify", action="store_true",
        help="cross-validate each recommendation dynamically: simulate "
             "the attack under the mitigated profile on a quick grid and "
             "check sim <= residual bound",
    )
    recommend.add_argument(
        "--runlog", nargs="?", const="runlog.jsonl", default=None,
        metavar="PATH",
        help="append a run record (chosen residual factors by subject) to "
             "this JSONL ledger (default PATH: runlog.jsonl)",
    )

    lint = commands.add_parser(
        "lint",
        help="check source files against the repo's wire-accounting "
             "and typing invariants",
    )
    lint.add_argument(
        "paths", nargs="*",
        help="files or directories to lint (default: the installed "
             "repro package)",
    )
    lint.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default: text)",
    )

    purity = commands.add_parser(
        "purity",
        help="whole-program determinism analysis: report call paths from "
             "nondeterminism sources to serialization sinks",
    )
    purity.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="output format (default: text)",
    )
    purity.add_argument(
        "--output",
        help="write the report to this file (a one-line summary still "
             "goes to stdout)",
    )
    purity.add_argument(
        "--baseline",
        help="suppression baseline TOML (default: purity-baseline.toml "
             "when present in the working directory)",
    )

    commands.add_parser(
        "matrix", help="print the vendor x Range-shape policy matrix"
    )

    serve = commands.add_parser(
        "serve",
        help="run the DoS-hardened amplification-analysis HTTP service",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8437,
        help="listen port (0 picks a free one; printed at startup)",
    )
    serve.add_argument(
        "--workers", type=int, default=1,
        help="threads for batches that run an exact wire simulation",
    )
    serve.add_argument(
        "--max-inflight", type=int, default=8,
        help="concurrently running batch requests before queueing",
    )
    serve.add_argument(
        "--queue-depth", type=int, default=16,
        help="waiting-room size; beyond it requests are shed with 429",
    )
    serve.add_argument(
        "--default-deadline-ms", type=int, default=2000,
        help="per-request deadline when X-Deadline-Ms is absent",
    )
    serve.add_argument(
        "--rate-capacity", type=float, default=256.0,
        help="token-bucket burst size for admission",
    )
    serve.add_argument(
        "--rate-refill", type=float, default=0.0,
        help="token-bucket refill per second (0 disables rate limiting)",
    )
    serve.add_argument(
        "--drain-grace-s", type=float, default=10.0,
        help="seconds SIGTERM waits for in-flight work before exiting",
    )
    serve.add_argument(
        "--runlog", default=None,
        help="run-ledger path; the session's RunRecord is appended on drain",
    )

    report = commands.add_parser(
        "report", help="regenerate every table/figure into a directory"
    )
    report.add_argument("output_dir", nargs="?", default="report")
    report.add_argument("--quick", action="store_true", help="trim the sweeps")

    run_all = commands.add_parser(
        "run-all",
        help="regenerate Tables IV-V and Figs 6-7 in one grid run",
    )
    run_all.add_argument(
        "--quick", action="store_true", help="trim the grids for a smoke run"
    )
    run_all.add_argument(
        "--output-dir", default=None,
        help="also write the rendered artifacts into this directory",
    )
    run_all.add_argument(
        "--trace", default=None, metavar="PATH",
        help="write the joined span + exchange stream as JSONL to PATH",
    )
    run_all.add_argument(
        "--metrics", default=None, metavar="PATH",
        help="write the metrics snapshot to PATH (.prom extension selects "
             "Prometheus text format, anything else JSON)",
    )
    run_all.add_argument(
        "--profile", nargs="?", const="runall_profile.txt", default=None,
        metavar="PATH",
        help="write the per-cell time/byte profile report "
             "(default PATH: runall_profile.txt)",
    )
    run_all.add_argument(
        "--no-progress", action="store_true",
        help="suppress the live progress line",
    )
    run_all.add_argument(
        "--faults", action="store_true",
        help="also run the faulted-SBR sweep (Table VI): seeded fault "
             "plan + vendor retry policies",
    )
    run_all.add_argument(
        "--fault-seed", type=int, default=None, metavar="SEED",
        help="fault plan seed (default: 20200605); same seed, same faults",
    )
    run_all.add_argument(
        "--checkpoint", nargs="?", const="runall_checkpoint.jsonl",
        default=None, metavar="PATH",
        help="journal finished cells to PATH so a killed run can resume "
             "(default PATH: runall_checkpoint.jsonl)",
    )
    run_all.add_argument(
        "--resume", action="store_true",
        help="reuse the checkpoint from a previous killed run; only the "
             "missing cells execute (implies --checkpoint)",
    )
    run_all.add_argument(
        "--exact", action="store_true",
        help="run every cell through the grid runner instead of "
             "answering measurement cells in-process on the fast path; "
             "OBR max n then comes from wire probes instead of the static "
             "search. Every answer is the same simulation either way",
    )
    run_all.add_argument(
        "--bench", nargs="?", const="BENCH_runall.json", default=None,
        metavar="PATH",
        help="write the schema-versioned benchmark observation (wall "
             "clock, cells/sec, fast-path hit rate, per-phase breakdown) "
             "to PATH; with --output-dir it is also written there by "
             "default",
    )
    run_all.add_argument(
        "--runlog", nargs="?", const="runlog.jsonl", default=None,
        metavar="PATH",
        help="append the full run record (config digest, phase and "
             "per-cell timings, fast-path counters, factors, artifact "
             "digests) to this JSONL ledger (default PATH: runlog.jsonl)",
    )

    obs = commands.add_parser(
        "obs",
        help="inspect the persistent run ledger and export telemetry",
    )
    obs_commands = obs.add_subparsers(dest="obs_command", required=True)

    obs_runs = obs_commands.add_parser(
        "runs", help="list recorded runs, oldest first"
    )
    obs_runs.add_argument(
        "--ledger", default="runlog.jsonl", metavar="PATH",
        help="run ledger to read (default: runlog.jsonl)",
    )
    obs_runs.add_argument(
        "--limit", type=int, default=None, metavar="N",
        help="show only the newest N runs",
    )
    obs_runs.add_argument(
        "--format", choices=["table", "json"], default="table",
        help="output format (default: table)",
    )

    obs_top = obs_commands.add_parser(
        "top",
        help="rank one recorded run's slowest cells (or a trace's "
             "slowest spans)",
    )
    obs_top.add_argument(
        "run", nargs="?", default="-1",
        help="ledger index or run-id prefix (default: -1, the newest)",
    )
    obs_top.add_argument(
        "--ledger", default="runlog.jsonl", metavar="PATH",
        help="run ledger to read (default: runlog.jsonl)",
    )
    obs_top.add_argument(
        "-n", "--count", type=int, default=10, metavar="N",
        help="entries to show (default: 10)",
    )
    obs_top.add_argument(
        "--trace", default=None, metavar="PATH",
        help="rank spans from this joined trace JSONL (run-all --trace "
             "output) instead of ledger cells",
    )

    obs_diff = obs_commands.add_parser(
        "diff",
        help="compare two recorded runs cell-by-cell and "
             "factor-by-factor",
    )
    obs_diff.add_argument("before", help="ledger index or run-id prefix")
    obs_diff.add_argument("after", help="ledger index or run-id prefix")
    obs_diff.add_argument(
        "--ledger", default="runlog.jsonl", metavar="PATH",
        help="run ledger to read (default: runlog.jsonl)",
    )
    obs_diff.add_argument(
        "--gate", action="store_true",
        help="exit nonzero when any cell slows past the threshold or "
             "any factor drifts past tolerance (the CI regression gate)",
    )
    obs_diff.add_argument(
        "--threshold", type=float, default=0.5, metavar="R",
        help="slowdown ratio over 1.0 that trips the timing gate "
             "(default: 0.5, i.e. 50%% slower)",
    )
    obs_diff.add_argument(
        "--min-seconds", type=float, default=0.1, dest="min_seconds",
        metavar="S",
        help="ignore cells faster than this in the after run — too "
             "noisy to gate on (default: 0.1)",
    )
    obs_diff.add_argument(
        "--factor-tolerance", type=float, default=1e-6,
        dest="factor_tolerance", metavar="T",
        help="relative amplification-factor drift allowed before the "
             "gate fails (default: 1e-6)",
    )
    obs_diff.add_argument(
        "--format", choices=["table", "json"], default="table",
        help="output format (default: table)",
    )

    obs_export_trace = obs_commands.add_parser(
        "export-trace",
        help="convert a run-all --trace JSONL into Chrome trace-event "
             "JSON (Perfetto / chrome://tracing loadable)",
    )
    obs_export_trace.add_argument(
        "input", help="joined span/exchange JSONL (run-all --trace output)"
    )
    obs_export_trace.add_argument(
        "output", nargs="?", default=None,
        help="target JSON path (default: INPUT with a .trace.json suffix)",
    )

    obs_export_prom = obs_commands.add_parser(
        "export-prom",
        help="write one recorded run's metrics snapshot as a Prometheus "
             "textfile-exporter file (atomic write)",
    )
    obs_export_prom.add_argument(
        "run", nargs="?", default="-1",
        help="ledger index or run-id prefix (default: -1, the newest)",
    )
    obs_export_prom.add_argument(
        "output", nargs="?", default="runlog.prom",
        help="target .prom path (default: runlog.prom)",
    )
    obs_export_prom.add_argument(
        "--ledger", default="runlog.jsonl", metavar="PATH",
        help="run ledger to read (default: runlog.jsonl)",
    )

    return parser


# ---------------------------------------------------------------------------
# Command implementations
# ---------------------------------------------------------------------------

def _cmd_vendors() -> int:
    from repro.reporting.render import render_table

    rows = [
        [name, profile_class(name).display_name, profile_class(name).server_header]
        for name in all_vendor_names()
    ]
    print(render_table(["name", "display name", "Server header"], rows))
    return 0


def _cmd_sbr(args: argparse.Namespace) -> int:
    from repro.core.sbr import SbrAttack
    from repro.reporting.render import format_bytes

    size = args.size_mb * MB
    result = SbrAttack(args.vendor, resource_size=size).run(rounds=args.rounds)
    cases = " & ".join(profile_class(args.vendor).sbr_cases_at(size))
    print(f"SBR against {args.vendor} ({args.size_mb} MB resource, "
          f"{args.rounds} round(s), case: {cases})")
    print(f"  attacker received: {format_bytes(result.client_traffic)}")
    print(f"  origin pushed:     {format_bytes(result.origin_traffic)}")
    print(f"  amplification:     {result.amplification:.1f}x")
    return 0


def _cmd_obr(args: argparse.Namespace) -> int:
    from repro.core.obr import ObrAttack
    from repro.reporting.render import format_bytes

    attack = ObrAttack(args.fcdn, args.bcdn)
    result = attack.run(overlap_count=args.overlaps)
    print(f"OBR through {args.fcdn} -> {args.bcdn} (1 KB resource)")
    print(f"  overlap count n:   {result.overlap_count}")
    print(f"  origin -> BCDN:    {format_bytes(result.bcdn_origin_traffic)}")
    print(f"  BCDN -> FCDN:      {format_bytes(result.fcdn_bcdn_traffic)}")
    print(f"  attacker received: {format_bytes(result.client_traffic)} (aborted)")
    print(f"  amplification:     {result.amplification:.1f}x")
    return 0


def _render_tables(tables: Sequence["Table"]) -> str:
    """Each table's rendered text under its title, blank-line separated."""
    from repro.reporting.render import render_table

    return "\n\n".join(
        f"{title}:\n{render_table(headers, rows)}"
        for _stem, title, headers, rows in tables
    )


def _output_dir(path: str) -> Path:
    """``path`` as an output directory, refused before any work is done
    if it (or the nearest existing ancestor) is not a directory."""
    target = Path(path)
    for candidate in (target, *target.parents):
        if candidate.exists():
            if not candidate.is_dir():
                raise UsageError(
                    f"output directory {path}: {candidate} is not a directory"
                )
            break
    return target


def _cmd_survey() -> int:
    from repro.core.feasibility import survey
    from repro.reporting.tables import survey_tables

    print(_render_tables(survey_tables(survey(file_size=16 * 1024))))
    return 0


def _cmd_flood(args: argparse.Namespace) -> int:
    from repro.core.practical import BandwidthAttackSimulation
    from repro.reporting.render import render_sparkline

    simulation = BandwidthAttackSimulation(
        vendor=args.vendor, origin_uplink_mbps=args.uplink_mbps
    )
    result = simulation.run(args.m)
    print(f"m={args.m} SBR req/s for 30s via {args.vendor} "
          f"({args.uplink_mbps:.0f} Mbps origin uplink)")
    print(f"  steady origin egress: {result.steady_origin_mbps:.1f} Mbps"
          + ("  [SATURATED]" if result.saturated else ""))
    print(f"  peak client ingress:  {result.peak_client_kbps:.1f} Kbps")
    print(f"  origin Mbps/s:        {render_sparkline(result.origin_mbps, width=40)}")
    return 0


def _cmd_economics(args: argparse.Namespace) -> int:
    from repro.core.economics import estimate_obr_campaign, estimate_sbr_campaign
    from repro.core.obr import vulnerable_combinations
    from repro.reporting.render import format_bytes

    duration = args.hours * 3600.0
    if args.attack == "sbr":
        if args.vendor not in all_vendor_names():
            print(f"unknown vendor {args.vendor!r}", file=sys.stderr)
            return 2
        campaign = estimate_sbr_campaign(
            args.vendor,
            resource_size=args.size_mb * MB,
            requests_per_second=args.rps,
            duration_seconds=duration,
        )
    else:
        fcdn, _, bcdn = args.vendor.partition(":")
        if (fcdn, bcdn) not in vulnerable_combinations():
            print(
                f"{args.vendor!r} is not a vulnerable fcdn:bcdn pair "
                f"(try e.g. cloudflare:akamai)",
                file=sys.stderr,
            )
            return 2
        campaign = estimate_obr_campaign(
            fcdn, bcdn, requests_per_second=args.rps, duration_seconds=duration
        )
    print(f"{campaign.attack.upper()} campaign vs {campaign.vendor}: "
          f"{args.rps:g} req/s for {args.hours:g} h")
    print(f"  victim traffic:   {format_bytes(campaign.victim_bytes)} "
          f"({campaign.victim_bandwidth_mbps:.1f} Mbps sustained)")
    print(f"  attacker traffic: {format_bytes(campaign.attacker_bytes)} "
          f"({campaign.attacker_bandwidth_mbps:.3f} Mbps)")
    print(f"  victim bill:      ${campaign.victim_cost_usd:,.2f} "
          f"at ${campaign.rate_usd_per_gb}/GB")
    return 0


#: ``repro matrix`` columns: shape label -> (Range value, resource size).
#: Size-dependent vendors (Azure, Huawei) get both regimes.
MATRIX_PROBE_CASES: Dict[str, Tuple[str, int]] = {
    "first-last (small file)": ("bytes=0-0", 1 * MB),
    "first-last (large file)": ("bytes=0-0", 25 * MB),
    "first- (open)": ("bytes=5-", 1 * MB),
    "-suffix (small file)": ("bytes=-1", 1 * MB),
    "-suffix (large file)": ("bytes=-1", 25 * MB),
    "multi closed disjoint": ("bytes=0-0,100-200", 1 * MB),
    "multi open overlapping": ("bytes=0-,0-,0-", 1 * MB),
    "suffix then open": ("bytes=-1024,0-,0-", 1 * MB),
    "one then open": ("bytes=1-,0-,0-", 1 * MB),
}


def _cmd_matrix() -> int:
    from repro.analysis.classify import probe_decision
    from repro.reporting.render import render_table

    short = {  # compact policy labels for the terminal
        "laziness": "lazy",
        "deletion": "DEL",
        "expansion": "EXP",
    }
    rows = [
        [vendor] + [
            short[probe_decision(vendor, range_value, size).policy.value]
            for range_value, size in MATRIX_PROBE_CASES.values()
        ]
        for vendor in sorted(all_vendor_names())
    ]
    print(render_table(["vendor", *MATRIX_PROBE_CASES], rows))
    print("\nDEL/EXP single-range cells are the SBR surface (Table I); "
          "lazy multi-range cells are the OBR front-end surface (Table II).")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.core.feasibility import survey
    from repro.reporting.render import write_tables
    from repro.reporting.tables import survey_tables
    from repro.runner.runall import run_all, write_report

    target = _output_dir(args.output_dir)
    report = run_all(quick=args.quick)
    surveyed = survey_tables(survey(file_size=16 * 1024))
    written = write_report(report, target)
    written += write_tables(surveyed, target)
    written += write_tables(surveyed + report.tables, target, suffixes=("md",))
    for path in written:
        print(f"wrote {path}")
    return 0


def _cmd_run_all(args: argparse.Namespace) -> int:
    import json

    from repro.faults.experiment import DEFAULT_FAULT_SEED
    from repro.obs.profile import render_profile
    from repro.obs.progress import ProgressReporter
    from repro.runner.runall import run_all, write_report

    if args.output_dir is not None:
        _output_dir(args.output_dir)
    checkpoint_path = args.checkpoint
    if args.resume and checkpoint_path is None:
        checkpoint_path = "runall_checkpoint.jsonl"
    if checkpoint_path is not None and not args.resume:
        # A fresh run starts a fresh journal; a stale one is worthless
        # (and the library refuses to overwrite it silently).
        Path(checkpoint_path).unlink(missing_ok=True)

    collect_obs = bool(args.trace or args.metrics or args.profile)
    reporter = None if args.no_progress else ProgressReporter(prefix="run-all")
    wall_started = time.perf_counter()
    report = run_all(
        quick=args.quick,
        collect_obs=collect_obs,
        observer=reporter,
        faults=args.faults,
        fault_seed=(
            args.fault_seed if args.fault_seed is not None else DEFAULT_FAULT_SEED
        ),
        checkpoint_path=checkpoint_path,
        resume=args.resume,
        exact=args.exact,
    )
    wall_s = time.perf_counter() - wall_started
    if reporter is not None:
        reporter.close()
    if checkpoint_path is not None:
        print(
            f"checkpoint: {checkpoint_path} "
            f"({report.restored_cells} cell(s) restored)"
            if args.resume
            else f"checkpoint: {checkpoint_path}"
        )
    print(
        f"run-all: {report.cell_count} cells in {report.duration_s:.1f}s "
        f"({report.cell_seconds:.1f}s of cell work)"
    )
    timing = report.timing
    print(
        f"  per cell: max {timing.max_s:.2f}s ({timing.slowest}), "
        f"mean {timing.mean_s:.3f}s"
        + (
            f", {timing.failed_count} failed ({timing.failed_s:.2f}s)"
            if timing.failed_count
            else ""
        )
    )
    # --exact and the observability flags both skip the planner; the
    # printed line and the label's "-exact" suffix follow from that one fact.
    stats = report.fastpath
    if stats is not None:
        print(
            f"  fast path: {stats.answered}/{stats.total} cells answered "
            f"before the grid ({stats.hit_rate:.0%} hit rate, "
            f"{stats.refused} refused)"
        )
    else:
        print("  fast path: disabled; every cell simulated by the grid runner")

    written_artifacts: List[Path] = []
    if args.trace is not None:
        from repro.netsim.trace import dump_joined_jsonl

        with open(args.trace, "w", encoding="utf-8") as stream:
            count = dump_joined_jsonl(report.events, report.spans, stream)
        print(f"wrote {args.trace} ({count} lines: "
              f"{len(report.events)} exchanges, {len(report.spans)} spans)")
        written_artifacts.append(Path(args.trace))

    if args.metrics is not None:
        from repro.obs.metrics import MetricsRegistry

        if args.metrics.endswith(".prom"):
            registry = MetricsRegistry()
            registry.merge_snapshot(report.metrics)
            content = registry.to_prometheus()
        else:
            content = json.dumps(report.metrics, indent=2, sort_keys=True) + "\n"
        with open(args.metrics, "w", encoding="utf-8") as stream:
            stream.write(content)
        print(f"wrote {args.metrics} ({len(report.metrics)} metric families)")
        written_artifacts.append(Path(args.metrics))

    if args.profile is not None:
        content = render_profile(
            report.cells,
            report.timing_by_experiment,
            total_s=report.duration_s,
            metrics_snapshot=report.metrics or None,
        )
        with open(args.profile, "w", encoding="utf-8") as stream:
            stream.write(content)
        print(f"wrote {args.profile} ({len(report.cells)} cells profiled)")
        written_artifacts.append(Path(args.profile))

    print("\n" + _render_tables(report.tables))
    if report.table7_recommendations is not None:
        from repro.analysis.recommend import render_recommendations_table

        print("\nTable VII - Defense recommendations (static residual bounds):")
        print(render_recommendations_table(report.table7_recommendations))
    label = "run-all" + ("-quick" if args.quick else "")
    if stats is None:
        label += "-exact"
    if args.faults:
        label += "-faults"
    if args.output_dir is not None or args.bench is not None:
        from repro.reporting.bench import bench_from_runall

        bench = bench_from_runall(report, label, wall_s=wall_s)
        if args.output_dir is not None:
            for path in write_report(report, args.output_dir):
                print(f"wrote {path}")
                written_artifacts.append(path)
            bench_path = bench.write(Path(args.output_dir))
            print(f"wrote {bench_path}")
            written_artifacts.append(bench_path)
        if args.bench is not None:
            bench_path = bench.write(args.bench)
            print(f"wrote {bench_path}")
            written_artifacts.append(bench_path)
    if args.runlog is not None:
        from repro.obs.runlog import RunLedger, artifact_digest, record_from_runall

        config = {
            "quick": args.quick,
            "exact": args.exact,
            "faults": args.faults,
            "fault_seed": (
                args.fault_seed if args.fault_seed is not None else DEFAULT_FAULT_SEED
            ),
        }
        record = RunLedger(args.runlog).append(
            record_from_runall(
                report,
                label,
                config,
                wall_s=wall_s,
                artifacts={
                    path.name: artifact_digest(path) for path in written_artifacts
                },
            )
        )
        print(f"runlog: appended run {record.run_id} ({label}) to {args.runlog}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.analysis.families import FAMILIES
    from repro.analysis.report import analyze_vendor_matrix, render_findings_table

    wall_started = time.perf_counter()
    report = analyze_vendor_matrix(**_family_sizes(args))
    wall_s = time.perf_counter() - wall_started
    if args.format == "json":
        print(report.to_json())
    else:
        print(render_findings_table(report))
        counts = ", ".join(
            f"{len(report.by_kind(family.name))} {family.name.upper()}-vulnerable "
            f"{family.shape.noun}(s)"
            for family in FAMILIES
        )
        bounds = " / ".join(f"{size} ({name})" for size, name in _size_labels(args))
        print(
            f"\n{counts}, {len(report.safe)} safe — bounds at {bounds}, "
            f"zero traffic simulated"
        )
    if args.with_retries and args.format != "json":
        from repro.analysis.bounds import faulted_sbr_bound
        from repro.cdn.vendors import all_vendor_names, create_profile
        from repro.reporting.render import render_table

        rows = []
        for name in all_vendor_names():
            bound = faulted_sbr_bound(name, args.size_mb * MB)
            rows.append(
                [
                    create_profile(name).display_name,
                    bound.max_attempts,
                    f"{bound.base.factor:.0f}",
                    f"{bound.factor:.0f}",
                ]
            )
        print(
            f"\nRetry-aware SBR bound at {args.size_mb}MB "
            f"(clean bound x attempt budget, bare-wire denominator):"
        )
        print(render_table(["CDN", "Attempts", "Clean bound", "Faulted bound"], rows))
    if args.runlog is not None:
        from repro.obs.runlog import RunLedger, record_from_analysis

        config = {**_size_flags(args), "with_retries": args.with_retries}
        record = RunLedger(args.runlog).append(
            record_from_analysis(report, config, wall_s=wall_s)
        )
        # JSON mode keeps stdout machine-parseable; the notice moves aside.
        print(
            f"runlog: appended run {record.run_id} (analyze) to {args.runlog}",
            file=sys.stderr if args.format == "json" else sys.stdout,
        )
    return 0


def _cmd_recommend(args: argparse.Namespace) -> int:
    from repro.analysis.families import FAMILIES
    from repro.analysis.recommend import (
        DEFAULT_THRESHOLD,
        recommend,
        render_recommendations_table,
        verify_recommendations,
    )

    threshold = args.threshold if args.threshold is not None else DEFAULT_THRESHOLD
    wall_started = time.perf_counter()
    report = recommend(
        threshold=threshold, with_retries=args.with_retries, **_family_sizes(args)
    )
    wall_s = time.perf_counter() - wall_started
    if args.format == "json":
        print(report.to_json())
    else:
        print(render_recommendations_table(report))
        counts = [
            f"{len(report.by_kind(family.name))} {family.name.upper()}"
            for family in FAMILIES
        ]
        bounds = " / ".join(f"{size} {name}" for size, name in _size_labels(args))
        print(
            f"\n{', '.join(counts[:-1])}, and {counts[-1]} finding(s); "
            f"threshold {threshold:g}x (bounds at {bounds})"
        )
        if report.unresolved:
            for recommendation in report.unresolved:
                print(
                    f"UNRESOLVED: {recommendation.subject} — no mitigation "
                    f"stays under {threshold:g}x"
                )
    if args.runlog is not None:
        from repro.obs.runlog import RunLedger, record_from_recommendations

        config = {
            **_size_flags(args),
            "threshold": threshold,
            "with_retries": args.with_retries,
            "verify": args.verify,
        }
        record = RunLedger(args.runlog).append(
            record_from_recommendations(report, config, wall_s=wall_s)
        )
        print(
            f"runlog: appended run {record.run_id} (recommend) to {args.runlog}",
            file=sys.stderr if args.format == "json" else sys.stdout,
        )
    if not report.all_resolved:
        return 1
    if args.verify:
        checks = verify_recommendations(report)
        failures = [check for check in checks if not check.ok]
        if args.format != "json":
            print(
                f"verified {len(checks)} simulated check(s): "
                f"{len(checks) - len(failures)} ok, {len(failures)} failed"
            )
        for check in failures:
            print(
                f"VERIFY FAIL: {check.subject} under {check.mitigation} at "
                f"{check.resource_size}B: simulated {check.simulated_factor:.3f}x "
                f"> residual bound {check.residual_bound:.3f}x",
                file=sys.stderr,
            )
        if failures:
            return 1
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the analysis service until SIGTERM/SIGINT, then drain."""
    import asyncio

    from repro.serve.app import AnalysisService, ServeConfig
    from repro.serve.server import ServeServer

    config = ServeConfig(
        max_inflight=args.max_inflight,
        queue_depth=args.queue_depth,
        default_deadline_ms=args.default_deadline_ms,
        rate_capacity=args.rate_capacity,
        rate_refill=args.rate_refill,
    )
    server = ServeServer(
        AnalysisService(config),
        host=args.host,
        port=args.port,
        workers=args.workers,
        runlog=args.runlog,
        drain_grace_s=args.drain_grace_s,
    )
    return asyncio.run(server.run_until_drained())


def _cmd_obs_runs(args: argparse.Namespace) -> int:
    import json

    from repro.obs.runlog import RunLedger
    from repro.reporting.render import format_duration, render_table

    records = RunLedger(args.ledger).load()
    offset = 0
    if args.limit is not None and 0 < args.limit < len(records):
        offset = len(records) - args.limit
        records = records[offset:]
    if args.format == "json":
        print(json.dumps([r.to_dict() for r in records], indent=2, sort_keys=True))
        return 0
    if not records:
        print(f"ledger {args.ledger} is empty")
        return 0
    print(
        render_table(
            ["#", "run id", "command", "label", "cells", "wall", "fast", "factors"],
            [
                [
                    offset + index,
                    record.run_id,
                    record.command,
                    record.label,
                    record.cell_count,
                    format_duration(record.wall_s),
                    (
                        f"{record.fastpath['hit_rate']:.0%}"
                        if record.fastpath is not None
                        else "-"
                    ),
                    len(record.factors),
                ]
                for index, record in enumerate(records)
            ],
        )
    )
    return 0


def _cmd_obs_top(args: argparse.Namespace) -> int:
    from repro.reporting.render import format_duration, render_table

    if args.trace is not None:
        from repro.netsim.trace import load_joined_jsonl

        with open(args.trace, "r", encoding="utf-8") as stream:
            _, spans = load_joined_jsonl(stream)
        ranked_spans = sorted(spans, key=lambda s: s.end - s.start, reverse=True)
        print(f"top {min(args.count, len(ranked_spans))} spans of {args.trace} "
              f"({len(ranked_spans)} total):")
        print(
            render_table(
                ["span", "trace", "wall"],
                [
                    [span.name, span.trace_id, format_duration(span.end - span.start)]
                    for span in ranked_spans[: args.count]
                ],
            )
        )
        return 0

    from repro.obs.runlog import RunLedger

    record = RunLedger(args.ledger).resolve(args.run)
    total_s = record.cell_seconds
    ranked = sorted(record.cells, key=lambda c: c.seconds, reverse=True)
    print(
        f"top {min(args.count, len(ranked))} cells of run {record.run_id} "
        f"({record.label}, {record.cell_count} cells, "
        f"{format_duration(record.wall_s)} wall):"
    )
    print(
        render_table(
            ["cell", "experiment", "wall", "share", "ok"],
            [
                [
                    cell.label,
                    cell.experiment,
                    format_duration(cell.seconds),
                    f"{cell.seconds / total_s:.0%}" if total_s > 0 else "-",
                    "ok" if cell.ok else "FAILED",
                ]
                for cell in ranked[: args.count]
            ],
        )
    )
    return 0


def _cmd_obs_diff(args: argparse.Namespace) -> int:
    import json
    import math

    from repro.obs.runlog import RunLedger, diff_runs
    from repro.reporting.render import format_duration, render_table

    ledger = RunLedger(args.ledger)
    diff = diff_runs(
        ledger.resolve(args.before),
        ledger.resolve(args.after),
        threshold=args.threshold,
        min_seconds=args.min_seconds,
        factor_tolerance=args.factor_tolerance,
    )
    timing = diff.timing_regressions()
    factors = diff.factor_regressions()
    if args.format == "json":
        payload = {
            "before": diff.before.run_id,
            "after": diff.after.run_id,
            "shared_cells": len(diff.cells),
            "added_cells": list(diff.added_cells),
            "removed_cells": list(diff.removed_cells),
            "added_factors": list(diff.added_factors),
            "removed_factors": list(diff.removed_factors),
            "timing_regressions": [
                {
                    "label": delta.label,
                    "experiment": delta.experiment,
                    "before_s": delta.before_s,
                    "after_s": delta.after_s,
                    "ratio": delta.ratio if math.isfinite(delta.ratio) else None,
                }
                for delta in timing
            ],
            "factor_regressions": [
                {
                    "key": delta.key,
                    "before": delta.before,
                    "after": delta.after,
                    "relative": (
                        delta.relative if math.isfinite(delta.relative) else None
                    ),
                }
                for delta in factors
            ],
            "ok": diff.ok,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(
            f"diff {diff.before.run_id} ({diff.before.label}) -> "
            f"{diff.after.run_id} ({diff.after.label}): "
            f"{len(diff.cells)} shared cell(s), "
            f"{len(diff.added_cells)} added, {len(diff.removed_cells)} removed"
        )
        print(
            f"wall: {format_duration(diff.before.wall_s)} -> "
            f"{format_duration(diff.after.wall_s)}"
        )
        if timing:
            print("\ntiming regressions "
                  f"(> {1.0 + args.threshold:.2f}x and > {args.min_seconds:g}s):")
            print(
                render_table(
                    ["cell", "experiment", "before", "after", "ratio"],
                    [
                        [
                            delta.label,
                            delta.experiment,
                            format_duration(delta.before_s),
                            format_duration(delta.after_s),
                            f"{delta.ratio:.2f}x",
                        ]
                        for delta in timing
                    ],
                )
            )
        if factors:
            print("\nfactor drift (deterministic outputs; any drift "
                  f"> {args.factor_tolerance:g} relative is a regression):")
            print(
                render_table(
                    ["factor", "before", "after", "drift"],
                    [
                        [
                            delta.key,
                            f"{delta.before:.6g}",
                            f"{delta.after:.6g}",
                            f"{delta.relative:+.2%}",
                        ]
                        for delta in factors
                    ],
                )
            )
        if not timing and not factors:
            print("no regressions")
    if args.gate:
        failures = diff.gate_failures()
        for failure in failures:
            print(f"GATE: {failure}", file=sys.stderr)
        if failures:
            print(
                f"gate FAILED with {len(failures)} regression(s)", file=sys.stderr
            )
            return 1
        if args.format != "json":
            print("gate passed")
    return 0


def _cmd_obs_export_trace(args: argparse.Namespace) -> int:
    from repro.obs.export import chrome_trace_from_jsonl, write_chrome_trace

    output = (
        args.output
        if args.output is not None
        else str(Path(args.input).with_suffix(".trace.json"))
    )
    with open(args.input, "r", encoding="utf-8") as stream:
        trace = chrome_trace_from_jsonl(stream)
    path = write_chrome_trace(trace, output)
    print(f"wrote {path} ({len(trace['traceEvents'])} trace events)")
    return 0


def _cmd_obs_export_prom(args: argparse.Namespace) -> int:
    from repro.obs.export import write_prometheus_textfile
    from repro.obs.runlog import RunLedger

    record = RunLedger(args.ledger).resolve(args.run)
    path, families = write_prometheus_textfile(record.metrics, args.output)
    print(f"wrote {path} ({families} metric families from run {record.run_id})")
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    if args.obs_command == "runs":
        return _cmd_obs_runs(args)
    if args.obs_command == "top":
        return _cmd_obs_top(args)
    if args.obs_command == "diff":
        return _cmd_obs_diff(args)
    if args.obs_command == "export-trace":
        return _cmd_obs_export_trace(args)
    if args.obs_command == "export-prom":
        return _cmd_obs_export_prom(args)
    raise AssertionError(
        f"unhandled obs command {args.obs_command!r}"
    )  # pragma: no cover


def _load_purity_baseline(
    option: Optional[str],
) -> Tuple[List["BaselineEntry"], Optional[str]]:
    """Resolve the suppression baseline: an explicit ``--baseline`` must
    exist (usage error otherwise); with no flag, ``purity-baseline.toml``
    in the working directory is picked up when present."""
    from pathlib import Path

    from repro.analysis.purity import BASELINE_FILENAME, load_baseline

    if option is not None:
        return load_baseline(option), option
    default = Path(BASELINE_FILENAME)
    if default.is_file():
        return load_baseline(default), str(default)
    return [], None


def _cmd_purity(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.analysis import purity

    entries, baseline_path = _load_purity_baseline(args.baseline)
    report = purity.analyze_tree(baseline=entries, baseline_path=baseline_path)
    if args.format == "sarif":
        rendered = purity.to_sarif_json(report)
    elif args.format == "json":
        rendered = json.dumps(report.to_dict(), indent=2, sort_keys=True)
    else:
        rendered = purity.render_text(report)
    if args.output:
        Path(args.output).write_text(rendered + "\n", encoding="utf-8")
        print(
            f"wrote {args.format} report to {args.output}: "
            f"{len(report.findings)} finding(s), "
            f"{len(report.unused_suppressions)} unused suppression(s)"
        )
    else:
        print(rendered)
    return 0 if report.clean else 1


def _cmd_lint(args: argparse.Namespace) -> int:
    import json

    from repro.analysis.lint import lint_paths, lint_repo

    findings = lint_paths(args.paths) if args.paths else lint_repo()
    if args.format == "json":
        payload = {
            "findings": [
                {
                    "path": finding.path,
                    "line": finding.line,
                    "col": finding.col,
                    "rule": finding.rule,
                    "message": finding.message,
                }
                for finding in findings
            ],
            "count": len(findings),
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for finding in findings:
            print(finding)
        if findings:
            print(f"{len(findings)} finding(s)", file=sys.stderr)
    return 0 if not findings else 1


def _cmd_scenario(args: argparse.Namespace) -> int:
    import json

    from repro.scenarios import load_scenario, run_scenario

    outcome = run_scenario(load_scenario(args.path))
    print(json.dumps(outcome.to_dict(), indent=2))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    argv = sys.argv[1:] if argv is None else argv
    command = next((arg for arg in argv if not arg.startswith("-")), None)
    args = _build_parser(command).parse_args(argv)
    try:
        if args.command == "vendors":
            return _cmd_vendors()
        if args.command == "sbr":
            return _cmd_sbr(args)
        if args.command == "obr":
            return _cmd_obr(args)
        if args.command == "survey":
            return _cmd_survey()
        if args.command == "flood":
            return _cmd_flood(args)
        if args.command == "economics":
            return _cmd_economics(args)
        if args.command == "scenario":
            return _cmd_scenario(args)
        if args.command == "analyze":
            return _cmd_analyze(args)
        if args.command == "recommend":
            return _cmd_recommend(args)
        if args.command == "lint":
            return _cmd_lint(args)
        if args.command == "purity":
            return _cmd_purity(args)
        if args.command == "matrix":
            return _cmd_matrix()
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "report":
            return _cmd_report(args)
        if args.command == "run-all":
            return _cmd_run_all(args)
        if args.command == "obs":
            return _cmd_obs(args)
    except UsageError as error:
        print(f"usage error: {error}", file=sys.stderr)
        return 2
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
