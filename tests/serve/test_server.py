"""The asyncio edge: admission under real concurrency, wire guards.

These tests run a real ``ServeServer`` on an ephemeral port inside the
test's own event loop.  Saturation is made deterministic by an exact
runner that blocks worker threads on a gate the test controls, so
"in-flight" is a fact, not a race.
"""

from __future__ import annotations

import asyncio
import json
import threading

import pytest

from repro.serve.admission import ADMIT, ENQUEUE
from repro.serve.app import AnalysisService, ServeConfig
from repro.serve.server import ServeServer

KB = 1024


def analyze_payload(items, deadline_ms=None):
    body = json.dumps({"items": items}).encode()
    head = (
        f"POST /v1/analyze HTTP/1.1\r\nHost: t\r\n"
        f"Content-Length: {len(body)}\r\n"
    )
    if deadline_ms is not None:
        head += f"X-Deadline-Ms: {deadline_ms}\r\n"
    return head.encode() + b"\r\n" + body


async def raw_roundtrip(port, payload):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(payload)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    return raw


def parse_head(raw):
    head = raw.split(b"\r\n\r\n", 1)[0].decode("latin-1")
    lines = head.split("\r\n")
    status = int(lines[0].split(" ")[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers


async def wait_until(predicate, timeout=5.0):
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        if asyncio.get_running_loop().time() > deadline:
            raise AssertionError("condition never became true")
        await asyncio.sleep(0.005)


class TestSaturationShedding:
    def test_overload_sheds_429_with_retry_after_and_recovers(self):
        asyncio.run(self._scenario())

    async def _scenario(self):
        gate = threading.Event()

        def blocking_runner(vendor, size):
            assert gate.wait(timeout=30.0)
            return 42.0

        service = AnalysisService(
            ServeConfig(max_inflight=2, queue_depth=1, max_queue_wait_s=30.0),
            exact_runner=blocking_runner,
        )
        server = ServeServer(service, port=0, workers=4)
        await server.start()
        payload = analyze_payload(
            [{"vendor": "cloudflare", "size": 64 * KB, "exact": True}],
            deadline_ms=20000,
        )
        try:
            # Two requests occupy both in-flight slots (blocked on the
            # gate), one waits in the queue...
            tasks = [asyncio.create_task(raw_roundtrip(server.port, payload))]
            await wait_until(lambda: service.admission.inflight == 1)
            tasks.append(asyncio.create_task(raw_roundtrip(server.port, payload)))
            await wait_until(lambda: service.admission.inflight == 2)
            tasks.append(asyncio.create_task(raw_roundtrip(server.port, payload)))
            await wait_until(lambda: service.admission.queued == 1)

            # ...so the next two are shed immediately with Retry-After.
            for _ in range(2):
                status, headers = parse_head(
                    await raw_roundtrip(server.port, payload)
                )
                assert status == 429
                assert int(headers["retry-after"]) >= 1

            gate.set()  # storm over: everything admitted completes
            responses = await asyncio.gather(*tasks)
            statuses = sorted(parse_head(raw)[0] for raw in responses)
            assert statuses == [200, 200, 200]
            assert service.admission.inflight == 0
            assert service.admission.queued == 0

            # The shed outcome reached the metrics too.
            counter = service.metrics.counter("repro_serve_requests_total")
            assert counter.value(endpoint="analyze", outcome="shed") == 2
        finally:
            gate.set()
            server.initiate_drain()


class TestQueueTimeoutReconciliation:
    """The ``wait_for`` cancel-then-raise window (3.10/3.11) must not
    leak queue slots or fake a promotion.

    Each test stages the exact post-timeout state ``_wait_in_queue``
    can observe and checks :meth:`ServeServer._resolve_queue_timeout`
    keeps the admission counters truthful.
    """

    def make_server(self):
        service = AnalysisService(
            ServeConfig(max_inflight=1, queue_depth=4, max_queue_wait_s=30.0)
        )
        return service, ServeServer(service, port=0)

    def test_timeout_with_future_still_queued_leaves_cleanly(self):
        asyncio.run(self._still_queued())

    async def _still_queued(self):
        service, server = self.make_server()
        assert service.admission.decide(0.0).outcome == ADMIT
        assert service.admission.decide(0.0).outcome == ENQUEUE
        future = asyncio.get_running_loop().create_future()
        server._waiters.append(future)
        future.cancel()  # what wait_for does on timeout
        assert server._resolve_queue_timeout(future) is False
        assert not server._waiters
        assert service.admission.queued == 0
        assert service.admission.inflight == 1

    def test_timeout_racing_a_real_promotion_takes_the_slot(self):
        asyncio.run(self._real_promotion())

    async def _real_promotion(self):
        service, server = self.make_server()
        assert service.admission.decide(0.0).outcome == ADMIT
        assert service.admission.decide(0.0).outcome == ENQUEUE
        future = asyncio.get_running_loop().create_future()
        server._waiters.append(future)
        # The running request finishes and promotes us just as the
        # timeout lands: the future holds a result, so we keep the slot.
        service.admission.release(0.0)
        server._promote_next()
        assert future.done() and not future.cancelled()
        assert server._resolve_queue_timeout(future) is True
        assert service.admission.queued == 0
        assert service.admission.inflight == 1

    def test_timeout_racing_a_cancelled_pop_releases_the_queue_slot(self):
        asyncio.run(self._cancelled_pop())

    async def _cancelled_pop(self):
        service, server = self.make_server()
        assert service.admission.decide(0.0).outcome == ADMIT
        assert service.admission.decide(0.0).outcome == ENQUEUE
        future = asyncio.get_running_loop().create_future()
        server._waiters.append(future)
        # The regression: wait_for cancels the future, then a release
        # pops-and-skips it before TimeoutError propagates.  No
        # promotion happened, so we must leave the queue — the old code
        # claimed the slot and leaked the queued count.
        future.cancel()
        service.admission.release(0.0)
        server._promote_next()
        assert not server._waiters
        assert server._resolve_queue_timeout(future) is False
        assert service.admission.queued == 0
        assert service.admission.inflight == 0


class TestLoopResponsiveness:
    def test_healthz_answers_while_the_single_worker_is_blocked(self):
        asyncio.run(self._scenario())

    async def _scenario(self):
        gate = threading.Event()

        def blocking_runner(vendor, size):
            assert gate.wait(timeout=30.0)
            return 3.0

        service = AnalysisService(
            ServeConfig(max_inflight=2), exact_runner=blocking_runner
        )
        server = ServeServer(service, port=0, workers=1)
        await server.start()
        payload = analyze_payload(
            [{"vendor": "cloudflare", "size": 64 * KB, "exact": True}],
            deadline_ms=20000,
        )
        try:
            batch = asyncio.create_task(raw_roundtrip(server.port, payload))
            await wait_until(lambda: service.admission.inflight == 1)
            # The only worker thread is parked mid-simulation; the
            # event loop must still serve liveness probes promptly.
            raw = await asyncio.wait_for(
                raw_roundtrip(
                    server.port, b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"
                ),
                timeout=5.0,
            )
            assert parse_head(raw)[0] == 200
            gate.set()
            assert parse_head(await batch)[0] == 200
        finally:
            gate.set()
            server.initiate_drain()


class TestWireGuards:
    def test_bad_and_hostile_inputs(self):
        asyncio.run(self._scenario())

    async def _scenario(self):
        service = AnalysisService(ServeConfig(max_body_bytes=1024))
        server = ServeServer(service, port=0)
        await server.start()
        try:
            # Declared body larger than the cap: refused before reading.
            raw = await raw_roundtrip(
                server.port,
                b"POST /v1/analyze HTTP/1.1\r\nHost: t\r\n"
                b"Content-Length: 1048576\r\n\r\n",
            )
            assert parse_head(raw)[0] == 413

            # Garbage request line.
            raw = await raw_roundtrip(server.port, b"NONSENSE\r\n\r\n\r\n")
            assert parse_head(raw)[0] == 400

            # Non-batch endpoints bypass admission entirely.
            raw = await raw_roundtrip(
                server.port, b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"
            )
            assert parse_head(raw)[0] == 200
        finally:
            server.initiate_drain()


class TestMalformedHeads:
    @pytest.mark.parametrize(
        "header_line",
        [b"Content-Length: abc", b"Ho st: t", b"Host"],
        ids=["non-numeric-length", "space-in-name", "no-colon"],
    )
    def test_answers_400_with_a_json_error(self, header_line):
        raw = asyncio.run(self._roundtrip(header_line))
        status, headers = parse_head(raw)
        assert status == 400
        assert headers["content-type"] == "application/json"
        body = json.loads(raw.split(b"\r\n\r\n", 1)[1])
        assert body["error"].startswith("malformed request:")

    async def _roundtrip(self, header_line):
        server = ServeServer(AnalysisService(), port=0)
        await server.start()
        try:
            return await raw_roundtrip(
                server.port,
                b"POST /v1/analyze HTTP/1.1\r\n" + header_line + b"\r\n\r\n",
            )
        finally:
            server.initiate_drain()


class TestDrain:
    def test_drain_finishes_inflight_work_and_flushes_the_ledger(self, tmp_path):
        asyncio.run(self._scenario(tmp_path))

    async def _scenario(self, tmp_path):
        from repro.obs.runlog import RunLedger

        gate = threading.Event()

        def blocking_runner(vendor, size):
            assert gate.wait(timeout=30.0)
            return 7.0

        runlog = tmp_path / "serve-runlog.jsonl"
        service = AnalysisService(
            ServeConfig(max_inflight=2, queue_depth=2),
            exact_runner=blocking_runner,
        )
        server = ServeServer(
            service, port=0, workers=2, runlog=str(runlog), drain_grace_s=30.0
        )
        runner = asyncio.create_task(server.run_until_drained(announce=False))
        await wait_until(lambda: server.port != 0)
        payload = analyze_payload(
            [{"vendor": "fastly", "size": 64 * KB, "exact": True}],
            deadline_ms=20000,
        )
        inflight = asyncio.create_task(raw_roundtrip(server.port, payload))
        await wait_until(lambda: service.admission.inflight == 1)

        server.initiate_drain()
        # New connections are refused once draining.
        with pytest.raises(OSError):
            await raw_roundtrip(server.port, payload)
        # The in-flight request still completes.
        gate.set()
        raw = await inflight
        assert parse_head(raw)[0] == 200

        assert await runner == 0
        records = RunLedger(runlog).load()
        assert len(records) == 1
        assert records[0].command == "serve"
        assert records[0].cell_count >= 1
        assert "repro_serve_requests_total" in records[0].metrics
