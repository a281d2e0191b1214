"""Open-loop timing from the due time, closed loops, response checks."""

import asyncio
import json

import loadgen
from inputs import Request

SERVICE_S = 0.02


def _request(items=1):
    body = json.dumps({"items": [{"vendor": "akamai"}] * items}).encode()
    return Request(path="/v1/analyze", body=body, items=items)


async def _slow_ok(request):
    await asyncio.sleep(SERVICE_S)
    return 200, json.dumps({"results": [{}] * request.items}).encode()


def test_open_loop_times_latency_from_the_due_time_and_reports_lateness():
    # Six requests all due at once through two slots: the later ones
    # wait for a slot, and that wait is part of their latency.
    requests = [_request() for _ in range(6)]
    result = asyncio.run(loadgen.open_loop(_slow_ok, requests, [0.0] * 6, concurrency=2))
    assert result.attempted == 6 and not result.failures
    lateness = sorted(result.lateness)
    latencies = sorted(result.latencies)
    assert lateness[0] < SERVICE_S / 2
    assert lateness[-1] >= 2 * SERVICE_S * 0.9  # third pair waited two services
    assert latencies[-1] >= 3 * SERVICE_S * 0.9
    for latency, service in zip(result.latencies, result.service):
        assert latency >= service


def test_open_loop_sends_on_schedule_when_slots_are_free():
    due = [0.0, 0.05, 0.10]
    result = asyncio.run(loadgen.open_loop(_slow_ok, [_request()] * 3, due, concurrency=2))
    assert max(result.lateness) < SERVICE_S
    assert result.elapsed_s >= due[-1] + SERVICE_S


def test_closed_loop_sends_every_request_back_to_back():
    result = asyncio.run(loadgen.closed_loop(_slow_ok, iter([_request()] * 6), callers=2))
    assert result.attempted == 6 and len(result.latencies) == 6
    assert 3 * SERVICE_S * 0.9 <= result.elapsed_s < 6 * SERVICE_S


def test_failed_responses_are_counted():
    async def failing(request):
        return 429, b'{"error": "overloaded"}'

    result = asyncio.run(loadgen.closed_loop(failing, iter([_request()] * 3)))
    assert result.failures == ["status 429"] * 3


def test_check_response():
    ok = json.dumps({"results": [{"finding": {}}, {"finding": {}}]}).encode()
    assert loadgen.check_response(200, ok, 2) is None
    assert loadgen.check_response(200, ok, 3) is not None  # one result per item
    assert loadgen.check_response(500, ok, 2) == "status 500"
    assert loadgen.check_response(200, b"not json", 2) == "response is not JSON"
    errored = json.dumps({"results": [{"error": "invalid item"}]}).encode()
    assert loadgen.check_response(200, errored, 1) is not None
    degraded = json.dumps({"results": [{"degraded": True}]}).encode()
    assert loadgen.check_response(200, degraded, 1) is not None
