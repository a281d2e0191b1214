"""End-to-end benchmark of the RangeAmp reproduction.

Usage, from the repository root::

    python3 benchmarks/e2e/run.py --seed 1                       # all workloads
    python3 benchmarks/e2e/run.py --workload audit --seed 1 --seconds 15
    python3 benchmarks/e2e/run.py --workload serve --seed 1 --trace 1

Workloads (see README.md for the full metric map):

* ``reproduce`` — cold ``run_all(workers=1)`` on the full paper grid;
* ``simulate`` — cold exact ``GridRunner(workers=1).run`` of a seeded
  Table V cascade plus 39 SBR and 13 CCFC cells (no fast path);
* ``audit`` — cold ``analyze_vendor_matrix`` + ``recommend`` at seeded
  sizes;
* ``serve`` — ``repro serve --workers 2`` under seeded mixed traffic
  over loopback TCP.

The program is a black box: every batch operation runs in a fresh child
process (``child.py``) one at a time, and serve traffic goes over a
socket.  Output checks run outside the timed region.  Timings are
converted to the reference CPU speed (``speed.py``).  ``--trace 0``
reports the end-to-end metrics listed in ``BENCHMARK.json``;
``--trace 1`` reports its per-layer metrics instead, from children with
span wrappers installed, and never end-to-end numbers.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (``{name: {"value": v, "unit": u}}``).
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import os
import re
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import loadgen
import stats
from inputs import BATCH_INPUTS, Request, Traffic, arrivals
from speed import Totals

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
CHILD = HERE / "child.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

WORKLOADS = ("reproduce", "simulate", "audit", "serve")

#: Batch iterations come in balanced units (simulate: one visit to each
#: of the 11 cascades); a run does ``seconds / UNIT_SECONDS`` units,
#: always the same number for the same ``--seconds``.  The estimates
#: are wall seconds per unit on a 2-core x86 container.
UNIT_ITERATIONS = {"reproduce": 1, "simulate": 11, "audit": 1}
UNIT_SECONDS = {"reproduce": 1.3, "simulate": 7.5, "audit": 0.6}
CHILD_TIMEOUT_S = 120.0
SERVER_TIMEOUT_S = 30.0

#: Open-loop phases: name -> (share of --seconds, rate).  On a 2-core
#: x86 container the closed loop completes ~250-450 rps.  At 80 rps the
#: open loop keeps p90 near 12 ms, inside the 25 ms limit; from ~120 rps
#: its median rides on queueing behind 20-40 ms cold OBR recommendations
#: and swings from run to run, so ``heavy`` stays at 80.
OPEN_PHASES = {"light": (0.15, 40.0), "heavy": (0.50, 80.0)}
#: The closed loop (2 callers) sends a fixed count, so every run does
#: the same work: 0.25 x --seconds x 200 requests.
CAPACITY_SHARE, CAPACITY_RPS = 0.25, 200
#: ``heavy`` segments and closed-loop windows alternate in this many
#: rounds.  Spells of a slower machine last seconds, so they hit a few
#: capacity windows rather than all of one long window, and capacity is
#: their median.
SERVE_ROUNDS = 8
SERVE_CONCURRENCY = 2
SERVE_SETUP_REPEATS = 5


class TracedSampleError(RuntimeError):
    """End-to-end metrics were asked of a traced measurement."""


def metric_units(trace: bool) -> Dict[str, str]:
    entries = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    return {entry["name"]: entry["unit"] for entry in entries}


def emit(values: Dict[str, float], trace: bool) -> Dict[str, Dict[str, Any]]:
    """Metric values in the output format, for exactly the names the
    mode reports.  A traced run may never carry end-to-end names: its
    timings include the wrappers."""
    units = metric_units(trace)
    if trace and set(values) & set(metric_units(False)):
        raise TracedSampleError("refusing to report end-to-end metrics from a --trace run")
    if set(values) != set(units):
        missing, extra = sorted(set(units) - set(values)), sorted(set(values) - set(units))
        raise KeyError(f"metric set mismatch: missing {missing}, unexpected {extra}")
    return {name: {"value": values[name], "unit": units[name]} for name in units}


class ChildOutput:
    """A child's stdout, read line by line with a deadline on each read,
    so a child that hangs cannot stall the harness."""

    def __init__(self, proc: "subprocess.Popen[bytes]") -> None:
        assert proc.stdout is not None
        self._fd = proc.stdout.fileno()
        self._buffer = b""
        self._eof = False

    def line(self, timeout_s: float) -> Optional[str]:
        """The next line, or ``None`` at the end of the output; raises
        ``TimeoutError`` if neither arrives in time."""
        deadline = time.monotonic() + timeout_s
        while b"\n" not in self._buffer and not self._eof:
            remaining = max(0.0, deadline - time.monotonic())
            if not select.select([self._fd], [], [], remaining)[0]:
                raise TimeoutError(f"no output within {timeout_s:g}s")
            chunk = os.read(self._fd, 1 << 16)
            self._eof = not chunk
            self._buffer += chunk
        if not self._buffer:
            return None
        line, _, self._buffer = self._buffer.partition(b"\n")
        return line.decode("utf-8", "replace")

    def rest(self, timeout_s: float) -> List[str]:
        """Every remaining line, up to the end of the output."""
        deadline = time.monotonic() + timeout_s
        lines = []
        while True:
            line = self.line(max(0.0, deadline - time.monotonic()))
            if line is None:
                return lines
            lines.append(line)


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(job: Dict[str, Any]) -> "subprocess.Popen[bytes]":
    return subprocess.Popen(
        [sys.executable, str(CHILD), json.dumps(job)],
        stdout=subprocess.PIPE, bufsize=0, env=child_env(), cwd=ROOT,
    )


def reap(proc: "subprocess.Popen[bytes]") -> None:
    """Kill ``proc`` if it still runs, and wait for it."""
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    assert proc.stdout is not None
    proc.stdout.close()


# -- batch workloads ---------------------------------------------------------


@dataclass
class Sample:
    """One child process: what it measured and whether it passed.
    Times are at the reference speed except ``op_wall_s``."""

    traced: bool
    setup_s: float = 0.0
    op_s: Optional[float] = None
    op_wall_s: float = 0.0
    #: Mean CPU speed over the operation (1.0: the reference speed).
    speed: float = 1.0
    rss_kb: int = 0
    failure: Optional[str] = None
    trace: Optional[Dict[str, Any]] = None
    memo: Optional[List[int]] = None


def run_child(job: Dict[str, Any]) -> Sample:
    sample = Sample(traced=job["trace"])
    started = time.perf_counter()
    proc = spawn(job)
    try:
        output = ChildOutput(proc)
        ready = output.line(CHILD_TIMEOUT_S)
        setup_wall_s = time.perf_counter() - started
        lines = output.rest(CHILD_TIMEOUT_S)
        proc.wait(CHILD_TIMEOUT_S)
    except (TimeoutError, subprocess.TimeoutExpired):
        sample.failure = f"child timed out after {CHILD_TIMEOUT_S:g}s"
        return sample
    finally:
        reap(proc)
    if ready != "ready" or proc.returncode != 0 or not lines:
        sample.failure = f"child exited {proc.returncode} before reporting"
        return sample
    payload = json.loads(lines[-1])
    sample.setup_s = Totals.from_json(payload["setup_speed"]).reference_s(setup_wall_s)
    sample.op_s = payload["op_s"]
    sample.op_wall_s = payload["op_wall_s"]
    sample.speed = payload["speed"]
    sample.rss_kb = payload["rss_kb"]
    sample.failure = payload["failure"]
    sample.trace = payload["trace"]
    sample.memo = payload["memo"]
    return sample


def batch_iterations(workload: str, seconds: float, trace: bool) -> int:
    units = max(1, round(seconds / UNIT_SECONDS[workload]))
    if trace:  # each traced iteration also runs an untraced twin
        units = max(1, units // 2)
    return units * UNIT_ITERATIONS[workload]


def run_batch(workload: str, seed: int, seconds: float, trace: bool) -> Tuple[List[Sample], List[Sample]]:
    """``(untraced, traced)`` samples; the traced list is empty unless
    ``trace``, and then each traced child has an untraced twin."""
    untraced: List[Sample] = []
    traced: List[Sample] = []
    for index in range(batch_iterations(workload, seconds, trace)):
        job = {"workload": workload, "inputs": BATCH_INPUTS[workload](seed, index)}
        untraced.append(run_child(dict(job, trace=False)))
        if trace:
            traced.append(run_child(dict(job, trace=True)))
    return untraced, traced


def _timed(samples: Sequence[Sample]) -> List[Sample]:
    return [sample for sample in samples if sample.op_s is not None]


def op_seconds(samples: Sequence[Sample], unit: int) -> float:
    """Seconds per operation: the median over units of the mean time of
    an operation in the unit.  A simulate unit visits each of the 11
    cascades once, and the cascade sets an operation's time (20 ms to
    1 s), so the median of single operations would be the time of
    whichever cascade falls in the middle; audit and reproduce units are
    single operations."""
    means = []
    for start in range(0, len(samples), unit):
        ops = [sample.op_s for sample in samples[start : start + unit] if sample.op_s is not None]
        if ops:
            means.append(sum(ops) / len(ops))
    if not means:
        raise RuntimeError("no child reported a timing")
    return stats.median(means)


def batch_end_to_end(samples: Sequence[Sample], unit: int) -> Dict[str, float]:
    if any(sample.traced for sample in samples):
        raise TracedSampleError("end-to-end metrics come only from untraced children")
    timed = _timed(samples)
    return {
        "op_ms": op_seconds(samples, unit) * 1000,
        "setup_s": stats.median([sample.setup_s for sample in timed]),
        "rss_mb": stats.median([sample.rss_kb for sample in timed]) / 1024,
    }


@dataclass
class TraceTotals:
    """Span statistics summed over traced processes, at the reference speed."""

    spans: Dict[str, List[float]] = field(default_factory=dict)
    counters: Dict[str, float] = field(default_factory=dict)
    memo_hits: int = 0
    memo_lookups: int = 0

    def add(self, trace: Dict[str, Any], memo: Optional[List[int]], speed: float) -> None:
        for name, (calls, self_s, total_s) in trace["spans"].items():
            totals = self.spans.setdefault(name, [0, 0.0, 0.0])
            totals[0] += calls
            totals[1] += self_s * speed
            totals[2] += total_s * speed
        for name, value in trace["counters"].items():
            self.counters[name] = self.counters.get(name, 0) + value
        if memo is not None:
            self.memo_hits += memo[0]
            self.memo_lookups += memo[1]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(totals: TraceTotals, ops: int, extras: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric: ``<span>.calls`` is a total count,
    ``<span>.self_s`` is self seconds per operation, the rest come from
    counters or ``extras`` and are 0 where the workload has none (the
    serve latencies of a batch workload, say)."""
    counters = totals.counters
    values: Dict[str, float] = {
        "http.parse_range_header.bytes": int(counters.get("http.parse_range_header.bytes", 0)),
        "runner.fastpath.hit_ratio": _ratio(
            counters.get("fastpath.answered", 0), counters.get("fastpath.cells", 0)
        ),
        "runner.fastpath.calibration_runs": int(counters.get("fastpath.calibration_runs", 0)),
        "runner.memo.hit_ratio": _ratio(totals.memo_hits, totals.memo_lookups),
        **extras,
    }
    for name in metric_units(True):
        span, _, stat = name.rpartition(".")
        if name in values:
            continue
        if stat == "calls":
            values[name] = int(totals.spans.get(span, [0])[0])
        elif stat == "self_s":
            values[name] = _ratio(totals.spans.get(span, [0, 0.0])[1], ops)
        else:
            values[name] = 0
    return values


def batch_layers(untraced: Sequence[Sample], traced: Sequence[Sample], unit: int) -> Dict[str, float]:
    totals = TraceTotals()
    uncovered = []
    for sample in _timed(traced):
        assert sample.trace is not None
        totals.add(sample.trace, sample.memo, sample.speed)
        uncovered.append(1 - sample.trace["covered_s"] / sample.op_wall_s)
    return layer_metrics(
        totals,
        len(_timed(traced)),
        {
            "trace.overhead_ratio": _ratio(op_seconds(traced, unit), op_seconds(untraced, unit)),
            "trace.uncovered_share": stats.median(uncovered) if uncovered else 0.0,
        },
    )


def describe_batch(workload: str, samples: Sequence[Sample]) -> None:
    timed = _timed(samples)
    ops = [s.op_s for s in timed]
    mean = f", mean={sum(ops) / len(ops) * 1000:.4g}ms" if ops else ""
    print(f"# {workload}: op {stats.describe(ops, 'ms', 1000)}{mean} at reference speed")
    print(
        f"# {workload}: op wall {stats.describe([s.op_wall_s for s in timed], 'ms', 1000)}, "
        f"CPU speed p50={stats.median([s.speed for s in timed]):.3f}"
        if timed else f"# {workload}: no timed samples"
    )
    print(f"# {workload}: setup {stats.describe([s.setup_s for s in samples], 's')}")
    for sample in samples:
        if sample.failure:
            print(f"# {workload}: FAILED {sample.failure}")


# -- serve -------------------------------------------------------------------


@contextlib.contextmanager
def serving_cpus() -> Iterator[Optional[int]]:
    """Pin the load generator to the first allowed CPU while serving,
    and yield the last one for the server (``None`` with a single CPU).

    Left to the scheduler, the client and the server's threads share
    and migrate between the two cores, and the closed-loop rate of one
    seed ranged 257-335 rps over six runs; pinned, 349-390 rps.
    """
    allowed = sorted(os.sched_getaffinity(0))
    if len(allowed) < 2:
        yield None
        return
    os.sched_setaffinity(0, {allowed[0]})
    try:
        yield allowed[-1]
    finally:
        os.sched_setaffinity(0, set(allowed))


@dataclass(frozen=True)
class ServerSnapshot:
    """The server's CPU seconds and speed-sampler totals at one moment."""

    cpu_s: float
    speed: Totals

    def cpu_ms_per_request(self, earlier: "ServerSnapshot", requests: int) -> float:
        """Server CPU time per request since ``earlier``, at the
        reference speed."""
        cpu_s = (self.speed - earlier.speed).reference_s(self.cpu_s - earlier.cpu_s)
        return cpu_s / requests * 1000


class Server:
    """One ``repro serve --workers 2`` on an ephemeral loopback port,
    run by ``child.py``; ``setup_s`` is at the reference speed."""

    def __init__(self, traced: bool, cpu: Optional[int]) -> None:
        args = ["--port", "0", "--workers", "2"]
        started = time.perf_counter()
        self.proc = spawn({"workload": "serve", "trace": traced, "args": args})
        self.output = ChildOutput(self.proc)
        try:
            if cpu is not None:
                # Threads the server starts later inherit this affinity.
                os.sched_setaffinity(self.proc.pid, {cpu})
            line = self.output.line(SERVER_TIMEOUT_S)
            wall_s = time.perf_counter() - started
            match = re.search(r"listening on ([\d.]+):(\d+)", line or "")
            if match is None:
                raise RuntimeError(f"repro serve did not start: {line!r}")
            self.host, self.port = match.group(1), int(match.group(2))
            self.setup_s = self.snapshot().speed.reference_s(wall_s)
        except BaseException:
            self.stop()
            raise

    def snapshot(self) -> ServerSnapshot:
        self.proc.send_signal(signal.SIGUSR1)
        while True:
            line = self.output.line(SERVER_TIMEOUT_S)
            if line is None:
                raise RuntimeError("repro serve exited while measured")
            if line.startswith("{"):
                payload = json.loads(line)
                return ServerSnapshot(payload["cpu_s"], Totals.from_json(payload["speed"]))

    def peak_rss_kb(self) -> int:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        match = re.search(r"VmHWM:\s+(\d+)", status)
        if match is None:
            raise RuntimeError("no VmHWM in /proc status")
        return int(match.group(1))

    def stop(self) -> List[str]:
        """Stop the speed sampler (SIGUSR2), drain gracefully (SIGTERM)
        and wait; the remaining stdout."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGUSR2)
            self.proc.send_signal(signal.SIGTERM)
        try:
            lines = self.output.rest(SERVER_TIMEOUT_S)
            self.proc.wait(SERVER_TIMEOUT_S)
        except (TimeoutError, subprocess.TimeoutExpired):
            lines = []
        finally:
            reap(self.proc)
        return lines


#: Prometheus samples keyed by ``(family, sorted label pairs)``.
Counters = Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float]


def scrape(server: Server) -> Counters:
    """The server's ``/metrics`` samples."""
    raw = f"GET /metrics HTTP/1.1\r\nHost: {server.host}\r\n\r\n".encode("ascii")
    status, body = asyncio.run(loadgen.exchange(server.host, server.port, raw))
    if status != 200:
        raise RuntimeError(f"/metrics answered {status}")
    samples = {}
    for line in body.decode("utf-8").splitlines():
        match = re.match(r"^(\w+)\{(.*)\} (\S+)$", line)
        if match:
            labels = tuple(sorted(re.findall(r'(\w+)="([^"]*)"', match.group(2))))
            samples[(match.group(1), labels)] = float(match.group(3))
    return samples


@dataclass
class ServeRun:
    """One server from start to drain."""

    setup_s: float
    phases: Dict[str, loadgen.PhaseResult] = field(default_factory=dict)
    #: Server CPU ms per request over the measured phases, at the
    #: reference speed.  The cold requests' mix is exact over a phase
    #: (``inputs.Traffic``), not over shorter spans, so this is a ratio
    #: of totals rather than a median of parts.
    cpu_ms: float = 0.0
    #: Completed requests per second of each closed-loop window.
    capacity_rates: List[float] = field(default_factory=list)
    rss_kb: int = 0
    #: ``/metrics`` counter deltas over the measured phases (untraced only).
    metrics: Counters = field(default_factory=dict)
    trace: Optional[Dict[str, Any]] = None
    memo: Optional[List[int]] = None
    #: Mean CPU speed of the server over its life.
    speed: float = 1.0


def serve_session(seed: int, seconds: float, traced: bool, cpu: Optional[int]) -> ServeRun:
    """Start a server, warm its hot keys, measure, drain it.

    ``light`` runs first; then rounds of a ``heavy`` segment followed by
    a closed-loop window.  The memo tables evict oldest-first once ~1365
    entries are cached; at 15 s a run adds ~900 fresh keys, so the
    warmed hot set is never evicted (runs much over 20 s would start
    to).
    """
    traffic = Traffic(seed)
    warmup = traffic.warmup()
    schedules = {
        name: arrivals(seed, name, rate, share * seconds)
        for name, (share, rate) in OPEN_PHASES.items()
    }
    requests = {name: traffic.phase(name, len(due)) for name, due in schedules.items()}
    window = round(CAPACITY_SHARE * seconds * CAPACITY_RPS / SERVE_ROUNDS)
    closed = traffic.phase("capacity", window * SERVE_ROUNDS)
    segment_s = OPEN_PHASES["heavy"][0] * seconds / SERVE_ROUNDS
    segments: List[List[Tuple[Request, float]]] = [[] for _ in range(SERVE_ROUNDS)]
    for request, due in zip(requests["heavy"], schedules["heavy"]):
        index = min(int(due / segment_s), SERVE_ROUNDS - 1)
        segments[index].append((request, due - index * segment_s))

    server = Server(traced, cpu)
    run = ServeRun(setup_s=server.setup_s)
    try:
        send = loadgen.http_sender(server.host, server.port)
        run.phases["warmup"] = asyncio.run(loadgen.closed_loop(send, iter(warmup), SERVE_CONCURRENCY))
        before = {} if traced else scrape(server)
        start = server.snapshot()
        light = run.phases["light"] = asyncio.run(
            loadgen.open_loop(send, requests["light"], schedules["light"], SERVE_CONCURRENCY)
        )
        heavy = run.phases["heavy"] = loadgen.PhaseResult()
        capacity = run.phases["capacity"] = loadgen.PhaseResult()
        for index, segment in enumerate(segments):
            heavy.extend(asyncio.run(loadgen.open_loop(
                send, [r for r, _ in segment], [d for _, d in segment], SERVE_CONCURRENCY
            )))
            result = asyncio.run(loadgen.closed_loop(
                send, iter(closed[index * window : (index + 1) * window]), SERVE_CONCURRENCY
            ))
            capacity.extend(result)
            run.capacity_rates.append((result.attempted - len(result.failures)) / result.elapsed_s)
        measured = light.attempted + heavy.attempted + capacity.attempted
        run.cpu_ms = server.snapshot().cpu_ms_per_request(start, measured)
        if not traced:
            run.metrics = {k: v - before.get(k, 0.0) for k, v in scrape(server).items()}
        run.rss_kb = server.peak_rss_kb()
    finally:
        lines = server.stop()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError("repro serve did not report after its drain")
    payload = json.loads(lines[-1])
    run.speed = Totals.from_json(payload["speed"]).speed()
    if traced:
        run.trace, run.memo = payload["trace"], payload["memo"]
    return run


def startup_seconds(cpu: Optional[int]) -> float:
    """Time one server start to ``listening``, then drain it."""
    server = Server(False, cpu)
    server.stop()
    return server.setup_s


def serve_failures(runs: Sequence[ServeRun]) -> Tuple[int, List[str]]:
    phases = [phase for run in runs for phase in run.phases.values()]
    return sum(p.attempted for p in phases), [f for p in phases for f in p.failures]


def serve_end_to_end(run: ServeRun, setups: Sequence[float]) -> Dict[str, float]:
    if run.trace is not None:
        raise TracedSampleError("end-to-end metrics come only from an untraced server")
    return {
        "op_ms": run.cpu_ms,
        "setup_s": stats.median(setups),
        "rss_mb": run.rss_kb / 1024,
    }


def _metric_sum(run: ServeRun, family: str, **match: str) -> float:
    return sum(
        value for (name, labels), value in run.metrics.items()
        if name == family and all((k, v) in labels for k, v in match.items())
    )


def serve_diagnostics(run: ServeRun) -> Dict[str, float]:
    """Latencies and service-side counts of an untraced serve run."""

    def ms(values: Sequence[float], pct: float) -> float:
        return stats.percentile(values, pct) * 1000

    light, heavy = run.phases["light"], run.phases["heavy"]
    values = {
        "serve.capacity_rps": stats.median(run.capacity_rates),
        "serve.light_p50_ms": ms(light.latencies, 50),
        "serve.light_p90_ms": ms(light.latencies, 90),
        "serve.heavy_p50_ms": ms(heavy.latencies, 50),
        "serve.heavy_p90_ms": ms(heavy.latencies, 90),
        "serve.capacity_p90_ms": ms(run.phases["capacity"].latencies, 90),
        "serve.p99_ms.light": ms(light.latencies, 99),
        "serve.p99_ms.heavy": ms(heavy.latencies, 99),
        "serve.gen_late_p90_ms": ms(light.lateness + heavy.lateness, 90),
    }
    for outcome in ("ok", "shed", "deadline", "degraded"):
        values[f"serve.requests.{outcome}"] = int(sum(
            _metric_sum(run, "repro_serve_requests_total", endpoint=endpoint, outcome=outcome)
            for endpoint in ("analyze", "recommend")
        ))
    for table in ("findings", "recommendations", "exact"):
        memo = f"serve_{table}"
        hits = _metric_sum(run, "repro_memo_lookups_total", memo=memo, result="hit")
        misses = _metric_sum(run, "repro_memo_lookups_total", memo=memo, result="miss")
        values[f"serve.memo.hit_ratio.{table}"] = _ratio(hits, hits + misses)
    return values


def serve_layers(plain: ServeRun, traced: ServeRun) -> Dict[str, float]:
    assert traced.trace is not None
    totals = TraceTotals()
    totals.add(traced.trace, traced.memo, traced.speed)
    requests = sum(len(p.service) for p in traced.phases.values())
    client_s = sum(sum(p.service) for p in traced.phases.values())
    handle_s = totals.spans.get("serve.service_handle", [0, 0.0, 0.0])[2] / traced.speed
    extras = serve_diagnostics(plain)
    extras.update({
        "serve.outside_service_ms_per_req": _ratio(client_s - handle_s, requests) * 1000,
        "trace.overhead_ratio": _ratio(traced.cpu_ms, plain.cpu_ms),
        "trace.uncovered_share": _ratio(client_s - traced.trace["covered_s"], client_s),
    })
    return layer_metrics(totals, requests, extras)


def describe_serve(runs: Dict[str, ServeRun], setups: Sequence[float]) -> None:
    for label, run in runs.items():
        for name, phase in run.phases.items():
            rate = len(phase.latencies) / phase.elapsed_s if phase.elapsed_s else 0.0
            line = f"# serve {label}/{name}: {rate:.0f} rps, latency {stats.describe(phase.latencies, 'ms', 1000)}"
            if phase.lateness:
                line += f", generator late p90={stats.percentile(phase.lateness, 90) * 1000:.3g}ms"
            print(line + f", failed {len(phase.failures)}")
            for failure in phase.failures[:3]:
                print(f"# serve {label}/{name}: FAILED {failure}")
        print(f"# serve {label}/server CPU per request at reference speed: {run.cpu_ms:.4g}ms")
        rates = " ".join(f"{rate:.0f}" for rate in run.capacity_rates)
        print(f"# serve {label}/capacity windows (rps): {rates}; server CPU speed {run.speed:.3f}")
    print(f"# serve: setup {stats.describe(setups, 's')}")


# -- entry point -------------------------------------------------------------


def run_serve(seed: int, seconds: float, trace: bool) -> Tuple[Dict[str, float], int, int]:
    """``(metric values, attempted, failed)`` of the serve workload."""
    # A traced run measures at half length, untraced then traced, so it
    # takes about as long as an untraced run.
    length = seconds / 2 if trace else seconds
    with serving_cpus() as cpu:
        runs = {"plain": serve_session(seed, length, False, cpu)}
        setups = [runs["plain"].setup_s]
        if trace:
            runs["traced"] = serve_session(seed, length, True, cpu)
        else:
            setups += [startup_seconds(cpu) for _ in range(SERVE_SETUP_REPEATS - 1)]
    if trace:
        values = serve_layers(runs["plain"], runs["traced"])
    else:
        values = serve_end_to_end(runs["plain"], setups)
    describe_serve(runs, setups)
    attempted, failures = serve_failures(list(runs.values()))
    return values, attempted, len(failures)


def run_batch_workload(workload: str, seed: int, seconds: float, trace: bool) -> Tuple[Dict[str, float], int, int]:
    """``(metric values, attempted, failed)`` of one batch workload."""
    untraced, traced = run_batch(workload, seed, seconds, trace)
    samples = untraced + traced
    describe_batch(workload, samples)
    unit = UNIT_ITERATIONS[workload]
    values = batch_layers(untraced, traced, unit) if trace else batch_end_to_end(untraced, unit)
    return values, len(samples), sum(1 for sample in samples if sample.failure)


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    if workload == "serve":
        values, attempted, failed = run_serve(seed, seconds, trace)
    else:
        values, attempted, failed = run_batch_workload(workload, seed, seconds, trace)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": emit(values, trace),
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="default: all, in order")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: per-layer metrics from a traced run instead of end-to-end ones",
    )
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2

    workloads = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    for workload in workloads:
        result = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        for name, metric in result["metrics"].items():
            print(f"{workload} {name} = {metric['value']:.6g} {metric['unit']}")
        print(
            f"{workload}: correct={result['correct']} attempted={result['attempted']} "
            f"failed={result['failed']}"
        )
        results[workload] = result
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{workload}.{name}": metric
                for workload, result in results.items()
                for name, metric in result["metrics"].items()
            },
        }
    print(json.dumps(final, sort_keys=True))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
