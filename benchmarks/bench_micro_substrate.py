"""Microbenchmarks of the hot substrate paths.

Not a paper artifact: these time the primitives every experiment leans
on, so regressions in the simulator itself are visible — Range parsing,
multipart assembly at OBR scale, vendor-sized header blocks, the full
single-CDN pipeline, and the disabled-observability overhead (the
NullTracer path must stay free).

The run-all benchmark at the bottom additionally persists the
schema-versioned ``BENCH_runall.json`` observation to
``benchmarks/output/`` — the same trajectory file ``repro run-all
--bench`` writes, so local bench runs and CI gate on one format.
"""

import itertools
import json
import time

from repro.cdn.node import CdnNode
from repro.cdn.vendors import create_profile
from repro.http.body import SyntheticBody
from repro.http.grammar import overlapping_open_ranges_value
from repro.http.headers import Headers
from repro.http.message import HttpRequest
from repro.http.multipart import MultipartByteranges
from repro.http.ranges import ResolvedRange, parse_range_header
from repro.netsim.tap import TrafficLedger
from repro.obs.memo import clear_all_memos
from repro.obs.tracer import Tracer, current_tracer, use_tracer
from repro.origin.server import OriginServer

MB = 1 << 20


def test_parse_single_range(benchmark):
    benchmark(parse_range_header, "bytes=0-0")


def test_parse_obr_range_10k(benchmark):
    """A cold parse: each round first empties the ``range_parse`` memo,
    which would otherwise answer the repeated value."""
    value = overlapping_open_ranges_value(10_750)
    result = benchmark.pedantic(
        parse_range_header, args=(value,), setup=clear_all_memos, rounds=200
    )
    assert len(result) == 10_750


def test_resolve_obr_range_10k(benchmark):
    spec = parse_range_header(overlapping_open_ranges_value(10_750))
    resolved = benchmark(spec.resolve, 1024)
    assert resolved == [(ResolvedRange(0, 1023), 10_750)]


def test_multipart_build_10k_parts(benchmark):
    resource = SyntheticBody(1024)
    ranges = [(ResolvedRange(0, 1023), 10_750)]

    def build():
        return MultipartByteranges.build(
            resource_body=resource,
            ranges=ranges,
            content_type="application/octet-stream",
        ).wire_size()

    size = benchmark(build)
    assert size > 10_750 * 1024


def _vendor_response_fields():
    """The header fields of one G-Core 206 answer: a vendor-sized block."""
    origin = OriginServer()
    origin.add_synthetic_resource("/target.bin", MB)
    node = CdnNode(create_profile("gcore"), origin, ledger=TrafficLedger())
    request = HttpRequest(
        "GET", "/target.bin", headers=[("Host", "victim.example"), ("Range", "bytes=0-0")]
    )
    return node.handle(request).headers.items()


def test_build_vendor_response_headers(benchmark):
    fields = _vendor_response_fields()
    headers = benchmark(Headers, fields)
    assert len(headers) == len(fields) >= 8
    assert headers.wire_size() == len(headers.serialize())


def test_lookup_vendor_response_headers(benchmark):
    """``get`` and ``in`` for the last field, Content-Range and an absent name."""
    headers = Headers(_vendor_response_fields())
    last = headers.names()[-1].upper()

    def lookup():
        return (
            headers.get(last),
            headers.get("content-range"),
            last in headers,
            "X-Absent" in headers,
        )

    value, content_range, present, absent = benchmark(lookup)
    assert value is not None and content_range == "bytes 0-0/1048576"
    assert present and not absent


def test_sbr_pipeline_round(benchmark):
    """One full client -> CDN -> origin SBR round at 10 MB."""
    origin = OriginServer()
    origin.add_synthetic_resource("/target.bin", 10 * MB)
    node = CdnNode(create_profile("gcore"), origin, ledger=TrafficLedger())
    counter = iter(range(10_000_000))

    def round_trip():
        request = HttpRequest(
            "GET",
            f"/target.bin?cb={next(counter)}",
            headers=[("Host", "victim.example"), ("Range", "bytes=0-0")],
        )
        return node.handle(request).status

    assert benchmark(round_trip) == 206


def test_origin_full_response(benchmark):
    origin = OriginServer()
    origin.add_synthetic_resource("/target.bin", 25 * MB)
    request = HttpRequest("GET", "/target.bin", headers=[("Host", "h")])
    response = benchmark(origin.handle, request)
    assert response.status == 200


def test_null_tracer_span_overhead(benchmark):
    """The disabled instrumentation point: one ContextVar read + a no-op
    context manager on a shared singleton.  Nanoseconds, no allocation."""

    def disabled_span():
        with current_tracer().span("bench.noop") as span:
            return span.recording

    assert benchmark(disabled_span) is False


def test_sbr_pipeline_round_traced(benchmark):
    """The same 10 MB SBR round as ``test_sbr_pipeline_round`` but under
    a recording tracer — the cost ceiling of ``--trace``."""
    origin = OriginServer()
    origin.add_synthetic_resource("/target.bin", 10 * MB)
    node = CdnNode(create_profile("gcore"), origin, ledger=TrafficLedger())
    counter = iter(range(10_000_000))
    tracer = Tracer()

    def round_trip():
        request = HttpRequest(
            "GET",
            f"/target.bin?cb={next(counter)}",
            headers=[("Host", "victim.example"), ("Range", "bytes=0-0")],
        )
        with use_tracer(tracer):
            return node.handle(request).status

    assert benchmark(round_trip) == 206
    assert tracer.finished_spans()


def test_cold_serve_items(benchmark):
    """Fresh-size SBR, CCFC and OBR findings against a warm service.

    Every call asks about sizes the service has not seen, so its
    finding memo misses; the per-vendor static answers beneath (the SBR
    classification, the OBR max n) are memoized without the size and
    stay warm."""
    from repro.serve.app import AnalysisService

    service = AnalysisService()
    sizes = itertools.count(1)

    def analyze():
        extra = next(sizes)
        items = [
            {"vendor": "akamai", "size": MB + extra},
            {"vendor": "huawei", "attack": "ccfc", "size": MB + extra},
            {"fcdn": "cdn77", "bcdn": "akamai", "size": 1024 + extra},
        ]
        body = json.dumps({"items": items}).encode("utf-8")
        request = HttpRequest(
            "POST",
            "/v1/analyze",
            headers=[("Host", "bench"), ("Content-Length", str(len(body)))],
            body=body,
        )
        return service.handle(request)

    analyze()  # warm the per-vendor answers
    response = benchmark(analyze)
    assert response.status == 200
    results = json.loads(response.body.materialize())["results"]
    assert [r["finding"]["kind"] for r in results] == ["sbr", "ccfc", "obr"]


def test_cold_audit_op(benchmark):
    """One cold audit: ``analyze_vendor_matrix`` + ``recommend`` at sizes
    no default run uses, every memo emptied first, as the e2e ``audit``
    workload's first operation at seed 1 runs it."""
    from repro.analysis.recommend import recommend
    from repro.analysis.report import analyze_vendor_matrix

    sizes = dict(
        resource_size=9_085_044, obr_resource_size=3_863, ccfc_resource_size=28_681_398
    )

    def audit():
        report = analyze_vendor_matrix(**sizes)
        return report, recommend(report=report, **sizes)

    report, recommendations = benchmark.pedantic(audit, setup=clear_all_memos, rounds=20)
    assert report.vulnerable
    assert len(recommendations.recommendations) == len(report.vulnerable)


def test_run_all_quick_fastpath(benchmark, output_dir):
    """Quick run-all through the closed-form fast path, persisting the
    ``BENCH_runall.json`` trajectory observation.

    Serial on purpose: the observation tracks the fast path and the
    residual simulation, not pool scaling.
    """
    from benchmarks.conftest import save_artifact
    from repro.reporting.bench import BENCH_FILENAME, bench_from_runall
    from repro.runner.memo import clear_all_memos
    from repro.runner.runall import run_all

    def regenerate():
        clear_all_memos()
        started = time.perf_counter()
        report = run_all(quick=True)
        return report, time.perf_counter() - started

    report, wall_s = benchmark(regenerate)
    assert report.fastpath is not None
    assert report.fastpath.answered > 0
    bench = bench_from_runall(report, "run-all-quick", wall_s=wall_s)
    save_artifact(output_dir, BENCH_FILENAME, bench.to_json() + "\n")
