"""One cold operation, or one server, in a fresh process: the benchmark's child.

Usage (the harness does this; ``src`` must be on ``PYTHONPATH``)::

    python child.py '{"workload": "audit", "inputs": {...}, "trace": false}'
    python child.py '{"workload": "serve", "trace": false, "args": [...]}'
    python child.py --write-expected

Every child starts a :class:`speed.SpeedSampler` first, so that its
set-up and its operation can be converted to time at the reference
speed (see ``speed.py``).

A batch child imports what its workload needs, prints ``ready`` (the end
of set-up), runs one operation through public ``repro`` functions,
times only that call, checks the output, and prints one JSON line.
Functions are looked up through their modules at call time so that, in
a traced child, every call goes through the installed wrappers.

A ``serve`` child runs ``repro serve`` through the CLI entry point.  On
``SIGUSR1`` it prints one JSON line with its CPU time so far and the
sampler's totals, and on ``SIGUSR2`` it stops the sampler; after the
drain it prints the final totals, and in a traced child the span
statistics.

``--write-expected`` regenerates the committed reference values in
``expected/`` from the exact (all-simulated) reproduction and the
default-size audit.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import resource
import shutil
import signal
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from speed import SpeedSampler

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected"

MODULES = {
    "reproduce": ("repro.runner.runall",),
    "simulate": (
        "repro.analysis.bounds",
        "repro.core.ccfc",
        "repro.core.obr",
        "repro.core.sbr",
        "repro.runner.executor",
        "repro.runner.grid",
    ),
    "audit": ("repro.analysis.recommend", "repro.analysis.report"),
}


def _mod(name: str) -> Any:
    return sys.modules[name]


# -- reproduce ---------------------------------------------------------------


def reproduce_op(inputs: Dict[str, Any], exact: bool = False) -> Any:
    return _mod("repro.runner.runall").run_all(workers=1, exact=exact)


def artifact_digests(report: Any) -> Dict[str, str]:
    """sha256 of every artifact ``write_report`` renders, by file name.

    ``write_report`` only writes files, so they go to a directory that
    is removed at once.  It lies beside this file because the benchmark
    reads and writes nothing outside its checkout; the root
    ``.gitignore`` names it for a child killed before the removal.
    """
    target = Path(tempfile.mkdtemp(prefix=".out-", dir=HERE))
    try:
        paths = _mod("repro.runner.runall").write_report(report, target)
        return {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(paths)
        }
    finally:
        shutil.rmtree(target, ignore_errors=True)


def reproduce_check(report: Any, inputs: Dict[str, Any]) -> Optional[str]:
    expected = json.loads((EXPECTED / "reproduce_artifacts.json").read_text())
    actual = artifact_digests(report)
    if actual != expected:
        differing = sorted(
            name for name in set(actual) | set(expected)
            if actual.get(name) != expected.get(name)
        )
        return f"artifact digests differ from expected/: {differing}"
    return None


# -- simulate ----------------------------------------------------------------


def simulate_grid(inputs: Dict[str, Any]) -> Any:
    grid = _mod("repro.runner.grid").ExperimentGrid("simulate")
    grid.extend(
        _mod("repro.core.obr")
        .obr_grid([tuple(inputs["cascade"])], resource_size=inputs["obr_size"])
        .cells
    )
    grid.extend(_mod("repro.core.sbr").sbr_grid(sizes=tuple(inputs["sbr_sizes"])).cells)
    grid.extend(_mod("repro.core.ccfc").ccfc_grid(sizes=(inputs["ccfc_size"],)).cells)
    return grid


def simulate_op(grid: Any) -> Any:
    return _mod("repro.runner.executor").GridRunner(workers=1).run(grid)


def simulate_check(result: Any, inputs: Dict[str, Any]) -> Optional[str]:
    bounds = _mod("repro.analysis.bounds")
    problems: List[str] = []
    for outcome in result:
        if not outcome.ok:
            problems.append(f"{outcome.cell.label} failed: {outcome.failure}")
            continue
        factor = outcome.value.amplification
        kind = outcome.cell.experiment
        if kind == "obr":
            fcdn, bcdn = outcome.cell.key
            bound = bounds.obr_bound(fcdn, bcdn, resource_size=inputs["obr_size"]).factor
            ok = factor <= bound
        elif kind == "ccfc":
            bound = bounds.ccfc_bound(*outcome.cell.key).factor
            ok = factor == bound
        else:
            bound = bounds.sbr_bound(*outcome.cell.key).factor
            ok = factor <= bound
        if not ok:
            problems.append(f"{outcome.cell.label}: factor {factor} vs bound {bound}")
    if len(result) != 1 + 13 * 3 + 13:
        problems.append(f"grid ran {len(result)} cells, expected 53")
    return "; ".join(problems[:3]) or None


# -- audit -------------------------------------------------------------------


def audit_op(inputs: Dict[str, Any]) -> Any:
    sizes = dict(
        resource_size=inputs["sbr_size"],
        obr_resource_size=inputs["obr_size"],
        ccfc_resource_size=inputs["ccfc_size"],
    )
    report = _mod("repro.analysis.report").analyze_vendor_matrix(**sizes)
    return report, _mod("repro.analysis.recommend").recommend(report=report, **sizes)


def finding_subjects(report: Any) -> List[str]:
    """Sorted ``kind subject`` for every finding; safe CCFC rows read
    ``safe:ccfc vendor`` to keep them apart from safe SBR rows."""
    return sorted(
        f"{f.kind}{':ccfc' if f.kind == 'safe' and f.data.get('attack') == 'ccfc' else ''}"
        f" {f.subject}"
        for f in report.findings
    )


def audit_check(value: Any, inputs: Dict[str, Any]) -> Optional[str]:
    report, recommendations = value
    expected = json.loads((EXPECTED / "audit_findings.json").read_text())
    if finding_subjects(report) != expected:
        return "finding subjects differ from the default-size set in expected/"
    if len(recommendations.recommendations) != len(report.vulnerable):
        return "not every vulnerable finding received a recommendation"
    if {r.kind for r in recommendations.recommendations} != {"sbr", "obr", "ccfc"}:
        return "a finding kind is missing from the recommendations"
    for rec in recommendations.recommendations:
        chosen = rec.chosen
        if (
            chosen is None
            or not chosen.sufficient
            or chosen.residual_severity not in ("low", "info")
            or not chosen.residual_factor < recommendations.threshold
        ):
            return f"{rec.subject}: not resolved below {recommendations.threshold}x"
    return None


OPS: Dict[str, Callable[[Any], Any]] = {
    "reproduce": reproduce_op,
    "simulate": simulate_op,
    "audit": audit_op,
}
CHECKS: Dict[str, Callable[[Any, Dict[str, Any]], Optional[str]]] = {
    "reproduce": reproduce_check,
    "simulate": simulate_check,
    "audit": audit_check,
}


# -- entry points ------------------------------------------------------------


def _tracer() -> Any:
    from tracing import Tracer, install

    tracer = Tracer()
    install(tracer)
    return tracer


def _memo_counts() -> List[int]:
    """Lookups and hits over the runner's named memo tables."""
    stats = importlib.import_module("repro.runner.memo").memo_stats()
    runner = [s for name, s in stats.items() if not name.startswith("serve_")]
    return [sum(s.hits for s in runner), sum(s.lookups for s in runner)]


def run_batch(job: Dict[str, Any], sampler: SpeedSampler) -> Dict[str, Any]:
    workload, inputs = job["workload"], job["inputs"]
    for name in MODULES[workload]:
        importlib.import_module(name)
    tracer = _tracer() if job["trace"] else None
    setup = sampler.totals()
    print("ready", flush=True)

    subject = simulate_grid(inputs) if workload == "simulate" else inputs
    before = sampler.totals()
    started = time.perf_counter()
    value = OPS[workload](subject)
    op_s = time.perf_counter() - started
    during = sampler.totals() - before
    sampler.stop()
    trace = tracer.snapshot() if tracer is not None else None
    memo = _memo_counts() if tracer is not None else None

    failure = CHECKS[workload](value, inputs)
    return {
        "op_wall_s": op_s,
        "op_s": during.reference_s(op_s),
        "speed": during.speed(),
        "setup_speed": setup.to_json(),
        "failure": failure,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": trace,
        "memo": memo,
    }


def run_serve(job: Dict[str, Any], sampler: SpeedSampler) -> Dict[str, Any]:
    tracer = _tracer() if job["trace"] else None

    def report(signum: int, frame: Any) -> None:
        totals = sampler.totals().to_json()
        print(json.dumps({"cpu_s": time.process_time(), "speed": totals}), flush=True)

    signal.signal(signal.SIGUSR1, report)
    # The harness stops the sampler before it drains the server: asyncio
    # closes its signal wakeup fd before it unregisters it, and a SIGALRM
    # in between would be written to a closed descriptor.
    signal.signal(signal.SIGUSR2, lambda signum, frame: sampler.stop())
    importlib.import_module("repro.cli").main(["serve", *job["args"]])
    sampler.stop()
    result: Dict[str, Any] = {"speed": sampler.totals().to_json()}
    if tracer is not None:
        result.update(trace=tracer.snapshot(), memo=_memo_counts())
    return result


def write_expected() -> None:
    """Regenerate ``expected/`` from the exact reproduction and the
    default-size audit."""
    for names in MODULES.values():
        for name in names:
            importlib.import_module(name)
    digests = artifact_digests(reproduce_op({}, exact=True))
    report, _ = audit_op({"sbr_size": 10 << 20, "obr_size": 1024, "ccfc_size": 10 << 20})
    EXPECTED.mkdir(exist_ok=True)
    for name, payload in (
        ("reproduce_artifacts.json", digests),
        ("audit_findings.json", finding_subjects(report)),
    ):
        (EXPECTED / name).write_text(json.dumps(payload, indent=1) + "\n")


def main(argv: List[str]) -> int:
    if argv == ["--write-expected"]:
        write_expected()
        return 0
    sampler = SpeedSampler().start()
    job = json.loads(argv[0])
    if job["workload"] == "serve":
        result = run_serve(job, sampler)
    else:
        result = run_batch(job, sampler)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
