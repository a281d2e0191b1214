"""The asyncio edge: admission under real concurrency, wire guards.

These tests run a real ``ServeServer`` on an ephemeral port inside the
test's own event loop.  Saturation is made deterministic by an exact
runner that blocks worker threads on a gate the test controls, so
"in-flight" is a fact, not a race.
"""

from __future__ import annotations

import asyncio
import json
import socket
import struct
import threading

import pytest

from repro.core.sbr import SbrAttack
from repro.http.headers import Headers
from repro.serve import server as serve_server
from repro.serve.admission import ADMIT, ENQUEUE
from repro.serve.app import AnalysisService, ServeConfig
from repro.serve.server import ServeServer

from tests.serve.conftest import batch_request, body_json

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


class FakeTransport:
    """Collects what a :class:`_Connection` writes; never touches a socket."""

    def __init__(self):
        self.written = b""
        self.closed = False

    def write(self, data):
        self.written += data

    def is_closing(self):
        return self.closed

    def close(self):
        self.closed = True


class TestBurstAdmission:
    def test_requests_completing_in_one_loop_pass_are_admitted_queued_and_shed(
        self,
    ):
        asyncio.run(self._scenario(burst=7))

    async def _scenario(self, burst):
        service = AnalysisService(
            ServeConfig(max_inflight=2, queue_depth=1, max_queue_wait_s=30.0)
        )
        server = ServeServer(service, port=0)
        payload = analyze_payload([{"vendor": "akamai", "size": 64 * KB}])
        transports = [FakeTransport() for _ in range(burst)]
        connections = [serve_server._Connection(server) for _ in range(burst)]
        for connection, transport in zip(connections, transports):
            connection.connection_made(transport)
        # Every request completes before any task runs.
        for connection in connections:
            connection.data_received(payload)
        assert service.admission.inflight == 2
        assert service.admission.queued == 1
        shed = [parse_head(t.written) for t in transports if t.written]
        assert len(shed) == burst - 3
        for status, headers in shed:
            assert status == 429
            assert int(headers["retry-after"]) >= 1

        await wait_until(lambda: all(t.closed for t in transports))
        statuses = sorted(parse_head(t.written)[0] for t in transports)
        assert statuses == [200] * 3 + [429] * (burst - 3)
        assert service.admission.inflight == 0
        assert service.admission.queued == 0
        for connection in connections:
            connection.connection_lost(None)


def batches(service, route):
    counter = service.metrics.counter("repro_serve_batches_total")
    return counter.value(route=route)


class TestBatchRouting:
    """Static batches are answered on the event loop; only a batch that
    runs a wire simulation goes to the worker pool."""

    def test_static_and_memo_hit_batches_never_reach_the_pool(self):
        asyncio.run(self._static_scenario())

    async def _static_scenario(self):
        service = AnalysisService()
        exact_item = {"vendor": "cloudflare", "size": 64 * KB, "exact": True}
        # Warm the exact memo in process, so the socket request hits it.
        service.handle(batch_request("/v1/analyze", [exact_item]))
        handled = []
        original_handle = service.handle

        def counting_handle(request, plan=None):
            handled.append(request.path)
            return original_handle(request, plan)

        service.handle = counting_handle
        server = ServeServer(service, port=0, workers=1)
        submitted = []

        def refuse_submit(*args, **kwargs):
            submitted.append(args)
            raise AssertionError("a static batch was submitted to the pool")

        server._pool.submit = refuse_submit
        await server.start()
        try:
            payloads = [
                analyze_payload([{"vendor": "akamai", "size": 64 * KB}]),
                analyze_payload([exact_item]),
                analyze_payload([{"fcdn": "cloudflare", "bcdn": "akamai"}]),
            ]
            body = json.dumps({"items": [{"fcdn": "cdn77", "bcdn": "akamai"}]})
            payloads.append(
                (
                    f"POST /v1/recommend HTTP/1.1\r\nHost: t\r\n"
                    f"Content-Length: {len(body)}\r\n\r\n{body}"
                ).encode()
            )
            for payload in payloads:
                raw = await raw_roundtrip(server.port, payload)
                assert parse_head(raw)[0] == 200
        finally:
            server.initiate_drain()
        assert submitted == []
        assert handled == ["/v1/analyze"] * 3 + ["/v1/recommend"]
        assert batches(service, "loop") == 4
        assert batches(service, "worker") == 0

    def test_exact_items_on_a_warm_safe_finding_stay_on_the_loop(self):
        asyncio.run(self._safe_scenario())

    async def _safe_scenario(self):
        service = AnalysisService()
        item = {"vendor": "akamai", "attack": "ccfc", "size": 64 * KB}
        # Warm the finding only: a safe finding never stores an exact factor.
        service.handle(batch_request("/v1/analyze", [item]))
        server = ServeServer(service, port=0, workers=1)

        def refuse_submit(*args, **kwargs):
            raise AssertionError("a safe exact batch was submitted to the pool")

        server._pool.submit = refuse_submit
        await server.start()
        try:
            raw = await raw_roundtrip(
                server.port, analyze_payload([dict(item, exact=True)] * 2)
            )
        finally:
            server.initiate_drain()
        assert parse_head(raw)[0] == 200
        results = json.loads(raw.split(b"\r\n\r\n", 1)[1])["results"]
        assert [r["finding"]["kind"] for r in results] == ["safe", "safe"]
        assert all("exact_skipped" in r for r in results)
        assert batches(service, "loop") == 1
        assert batches(service, "worker") == 0

    def test_a_cold_exact_item_runs_off_the_loop_thread(self):
        asyncio.run(self._cold_scenario())

    async def _cold_scenario(self):
        service = AnalysisService()
        threads = []
        original_handle = service.handle

        def recording_handle(request, plan=None):
            threads.append(threading.get_ident())
            return original_handle(request, plan)

        service.handle = recording_handle
        server = ServeServer(service, port=0, workers=1)
        await server.start()
        try:
            raw = await raw_roundtrip(
                server.port,
                analyze_payload(
                    [{"vendor": "cloudflare", "size": 64 * KB, "exact": True}]
                ),
            )
        finally:
            server.initiate_drain()
        assert parse_head(raw)[0] == 200
        body = json.loads(raw.split(b"\r\n\r\n", 1)[1])
        assert "exact_factor" in body["results"][0]
        assert len(threads) == 1
        assert threads[0] != threading.get_ident()
        assert batches(service, "worker") == 1
        assert batches(service, "loop") == 0

    @pytest.mark.parametrize(
        "spelling",
        ['"exact":true', '"exact" :\n true', '"\\u0065xact": true'],
        ids=["compact", "spaced", "escaped"],
    )
    def test_routing_reads_parsed_items_not_body_bytes(self, spelling):
        asyncio.run(self._spelling_scenario(spelling))

    async def _spelling_scenario(self, spelling):
        calls = []

        def runner(vendor, size):
            calls.append(threading.get_ident())
            return 2.0

        service = AnalysisService(exact_runner=runner)
        server = ServeServer(service, port=0, workers=1)
        await server.start()
        body = '{"items": [{"vendor": "akamai", "size": 65536, %s}]}' % spelling
        try:
            raw = await raw_roundtrip(
                server.port,
                (
                    f"POST /v1/analyze HTTP/1.1\r\nHost: t\r\n"
                    f"Content-Length: {len(body)}\r\n\r\n{body}"
                ).encode(),
            )
        finally:
            server.initiate_drain()
        assert parse_head(raw)[0] == 200
        assert len(calls) == 1
        assert calls[0] != threading.get_ident()
        assert batches(service, "worker") == 1

    @pytest.mark.parametrize(
        "path, item, simulates",
        [
            ("/v1/analyze", {"vendor": "akamai", "size": 64 * KB}, False),
            ("/v1/analyze", {"vendor": "akamai", "size": 64 * KB, "exact": True}, True),
            ("/v1/recommend", {"vendor": "akamai", "size": 64 * KB, "exact": True}, False),
            ("/v1/analyze", {"vendor": "akamai", "size": 9 << 20, "exact": True}, False),
            ("/v1/analyze", {"vendor": "nosuch", "exact": True}, False),
        ],
        ids=["static", "cold-exact", "recommend", "above-exact-limit", "invalid"],
    )
    def test_only_a_cold_exact_analyze_item_simulates(self, path, item, simulates):
        plan = AnalysisService().plan(batch_request(path, [item]))
        assert plan.error is None
        assert plan.simulates is simulates

    def test_a_planned_memo_hit_never_simulates_after_eviction(self, monkeypatch):
        service = AnalysisService()
        request = batch_request(
            "/v1/analyze", [{"vendor": "cloudflare", "size": 64 * KB, "exact": True}]
        )
        warm = body_json(service.handle(request))["results"][0]["exact_factor"]
        plan = service.plan(request)
        assert not plan.simulates
        service.memo.clear()

        def no_simulation(*args, **kwargs):
            raise AssertionError("a planned memo hit ran a simulation")

        monkeypatch.setattr(SbrAttack, "run", no_simulation)
        payload = body_json(service.handle(request, plan))
        assert payload["degraded"] is False
        assert payload["results"][0]["exact_factor"] == warm
        # Still one lookup for the one exact item: a miss, re-stored.
        stats = service.memo.stats()["exact"]
        assert (stats.hits, stats.misses) == (0, 1)
        assert len(service.memo.table("exact")) == 1


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
        [
            b"Content-Length: abc",
            b"Ho st: t",
            b"Host",
            b"Content-Length : 5",
            b"Host: t\r\n X: y",
        ],
        ids=[
            "non-numeric-length",
            "space-in-name",
            "no-colon",
            "space-before-colon",
            "obs-fold",
        ],
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


async def send_and_read(port, payload, byte_by_byte=False, half_close=False):
    """Send ``payload`` (one byte per write if asked), optionally
    half-close, and read until the server closes."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    chunks = [payload]
    if byte_by_byte:
        chunks = [payload[i : i + 1] for i in range(len(payload))]
    for chunk in chunks:
        writer.write(chunk)
        await writer.drain()
        if byte_by_byte:
            await asyncio.sleep(0.001)
    if half_close:
        writer.write_eof()
    raw = await reader.read()
    writer.close()
    return raw


async def open_and_reset(port, payload):
    """Send ``payload``, then reset the connection (RST, not FIN)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(payload)
    await writer.drain()
    return writer


def reset(writer):
    sock = writer.get_extra_info("socket")
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
    writer.transport.abort()


class TestConnectionEdge:
    """One protocol object per connection: whatever the client does,
    it gets at most one answer and the connection is accounted for."""

    def test_one_byte_per_write_still_gets_a_200(self):
        async def scenario():
            server = ServeServer(AnalysisService(), port=0)
            await server.start()
            try:
                payload = analyze_payload([{"vendor": "akamai", "size": 64 * KB}])
                raw = await send_and_read(server.port, payload, byte_by_byte=True)
                assert parse_head(raw)[0] == 200
                assert json.loads(raw.split(b"\r\n\r\n", 1)[1])["results"]
            finally:
                server.initiate_drain()

        asyncio.run(scenario())

    def test_half_closed_client_still_gets_its_answer(self):
        async def scenario():
            gate = threading.Event()

            def blocking_runner(vendor, size):
                assert gate.wait(timeout=30.0)
                return 5.0

            service = AnalysisService(exact_runner=blocking_runner)
            server = ServeServer(service, port=0)
            await server.start()
            try:
                payload = analyze_payload(
                    [{"vendor": "akamai", "size": 64 * KB, "exact": True}],
                    deadline_ms=20000,
                )
                answer = asyncio.create_task(
                    send_and_read(server.port, payload, half_close=True)
                )
                # The FIN lands while the batch is parked on the worker.
                await wait_until(lambda: service.admission.inflight == 1)
                await asyncio.sleep(0.05)
                gate.set()
                raw = await asyncio.wait_for(answer, timeout=10.0)
                assert parse_head(raw)[0] == 200
                body = json.loads(raw.split(b"\r\n\r\n", 1)[1])
                assert body["results"][0]["exact_factor"] == 5.0
            finally:
                gate.set()
                server.initiate_drain()

        asyncio.run(scenario())

    @pytest.mark.parametrize(
        "payload, status",
        [
            (b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n", 200),
            (b"NONSENSE\r\n\r\n", 400),
            (b"POST /v1/analyze HTTP/1.1\r\nContent-Length: 1048577\r\n\r\n", 413),
            (b"GET /healthz HTTP/1.1\r\nX-Pad: " + b"a" * (17 * KB), 431),
            (b"GET /healthz HTTP/1.1\r\nHost: t\r\n", 431),  # read timeout
        ],
        ids=["200", "400", "413", "431", "read-timeout"],
    )
    def test_open_connections_return_to_zero_after_an_answer(
        self, monkeypatch, payload, status
    ):
        monkeypatch.setattr(serve_server, "READ_TIMEOUT_S", 0.2)

        async def scenario():
            server = ServeServer(AnalysisService(), port=0)
            await server.start()
            try:
                raw = await send_and_read(server.port, payload)
                assert parse_head(raw)[0] == status
                await wait_until(lambda: server._open_connections == 0)
            finally:
                server.initiate_drain()

        asyncio.run(scenario())

    def test_open_connections_return_to_zero_after_a_reset_mid_head(self):
        async def scenario():
            server = ServeServer(AnalysisService(), port=0)
            await server.start()
            try:
                writer = await open_and_reset(server.port, b"GET /healthz HTT")
                await wait_until(lambda: server._open_connections == 1)
                reset(writer)
                await wait_until(lambda: server._open_connections == 0)
            finally:
                server.initiate_drain()

        asyncio.run(scenario())

    def test_open_connections_return_to_zero_after_a_reset_during_the_batch(self):
        async def scenario():
            gate = threading.Event()

            def blocking_runner(vendor, size):
                assert gate.wait(timeout=30.0)
                return 5.0

            service = AnalysisService(exact_runner=blocking_runner)
            server = ServeServer(service, port=0)
            await server.start()
            try:
                payload = analyze_payload(
                    [{"vendor": "akamai", "size": 64 * KB, "exact": True}],
                    deadline_ms=20000,
                )
                writer = await open_and_reset(server.port, payload)
                await wait_until(lambda: service.admission.inflight == 1)
                reset(writer)
                await asyncio.sleep(0.05)
                gate.set()
                await wait_until(lambda: service.admission.inflight == 0)
                await wait_until(lambda: server._open_connections == 0)
            finally:
                gate.set()
                server.initiate_drain()

        asyncio.run(scenario())

    def test_each_request_head_is_parsed_once(self, monkeypatch):
        calls = []
        original = serve_server.parse_request_head

        def counting(head):
            calls.append(head)
            return original(head)

        monkeypatch.setattr(serve_server, "parse_request_head", counting)
        header_parses = []
        original_parse = Headers.parse.__func__

        def counting_parse(cls, blob):
            header_parses.append(blob)
            return original_parse(cls, blob)

        monkeypatch.setattr(Headers, "parse", classmethod(counting_parse))

        async def scenario():
            server = ServeServer(AnalysisService(), port=0)
            await server.start()
            try:
                batch = analyze_payload([{"vendor": "akamai", "size": 64 * KB}])
                for payload, byte_by_byte in [
                    (b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n", False),
                    (batch, False),
                    (batch, True),
                ]:
                    raw = await send_and_read(server.port, payload, byte_by_byte)
                    assert parse_head(raw)[0] == 200
            finally:
                server.initiate_drain()

        asyncio.run(scenario())
        assert len(calls) == 3
        assert len(header_parses) == 3
