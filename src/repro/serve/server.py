"""The asyncio edge: sockets, queueing, drain; wall time lives here.

:class:`ServeServer` glues :class:`~repro.serve.app.AnalysisService` to
``loop.create_server``.  The **service** decides what any request means
(deterministic under its injected clock); the **server** owns
connections, the admission futures (who waits, who is promoted, in what
order), where a batch runs, and the drain protocol.

The event loop answers static work; the worker pool runs simulations.
:meth:`~repro.serve.app.AnalysisService.plan` says whether a batch runs
a wire simulation (an exact item whose factor is not memoized).  Such a
batch goes to a worker thread, so a slow simulation never stalls the
loop; any other batch is answered inline, with no ``await`` between
planning and answering.  An inline batch is at most ``max_batch_items``
static items (a 64-item cold OBR ``/v1/recommend`` batch in a fresh
process takes ~40 ms on a 2-vCPU container): that is how long it can
hold up health probes and socket reads.

Each connection is one :class:`asyncio.Protocol` that reads one request.
DoS posture: one read deadline (head and body together) kills slowloris
connections, heads are capped at ``MAX_HEADER_BYTES`` (431), the head
is parsed once and its ``Content-Length`` bounded (413) *before* the
body is read, a head or body that does not parse gets a 400, and every
batch request passes admission control before any JSON is parsed.
Admission is decided the moment a request's last byte arrives, not when
its task runs: requests completing in one loop pass are all counted, so
a burst is queued and shed even though inline batches never overlap.

Graceful drain (SIGTERM/SIGINT): stop accepting, flip ``/readyz`` to
503, let in-flight and queued work finish or deadline out within
``drain_grace_s``, flush a :class:`~repro.obs.runlog.RunRecord` with
the session's metrics to the run ledger, and exit 0.
"""

from __future__ import annotations

import asyncio
import signal
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Awaitable, Deque, Dict, Optional, Union, cast

from repro.errors import HttpError
from repro.http.body import make_body
from repro.http.message import HttpRequest, HttpResponse
from repro.http.status import StatusCode
from repro.http.wire import parse_request_head
from repro.obs.metrics import SERVE_BATCHES
from repro.serve.admission import ENQUEUE, SHED, AdmissionDecision
from repro.serve.app import AnalysisService, _json_response

#: Maximum bytes of request head (request line + headers).
MAX_HEADER_BYTES = 16 * 1024
#: Seconds a client may take to send its whole request, head and body.
READ_TIMEOUT_S = 10.0

_BATCH_PATHS = ("/v1/analyze", "/v1/recommend")
_HEAD_TOO_LARGE = _json_response(
    StatusCode.REQUEST_HEADER_FIELDS_TOO_LARGE,
    {"error": "request head too large or too slow"},
)
_BODY_SHORT = _json_response(
    StatusCode.BAD_REQUEST,
    {"error": "request body shorter than Content-Length or too slow"},
)


class _Connection(asyncio.Protocol):
    """One client connection: buffer one request, parse its head once,
    answer it and close.  Bytes after the request are ignored."""

    _transport: asyncio.Transport
    _timer: asyncio.TimerHandle
    #: The task answering the complete request (held against GC).
    _task: "asyncio.Task[None]"

    def __init__(self, server: "ServeServer") -> None:
        self._server = server
        self._buffer = bytearray()
        self._reading = True
        #: A head terminator not found yet starts at this offset or later.
        self._scanned = 0
        #: The parsed head, once its terminator has arrived.
        self._request: Optional[HttpRequest] = None
        self._body = slice(0, 0)

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self._transport = cast(asyncio.Transport, transport)
        self._server._open_connections += 1
        # One deadline covers head and body: it kills slowloris.
        loop = asyncio.get_running_loop()
        self._timer = loop.call_later(READ_TIMEOUT_S, self._timed_out)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self._server._open_connections -= 1
        self._stop_reading()

    def data_received(self, data: bytes) -> None:
        if self._reading:
            self._buffer += data
            self._advance(eof=False)

    def eof_received(self) -> bool:
        if self._reading:
            self._advance(eof=True)
        return True  # a half-closed client still reads its answer

    def _timed_out(self) -> None:
        self._finish(_HEAD_TOO_LARGE if self._request is None else _BODY_SHORT)

    def _advance(self, eof: bool) -> None:
        outcome = self._parse(eof)
        if isinstance(outcome, HttpRequest):
            self._stop_reading()
            answer = self._server._admit(outcome)
            if isinstance(answer, HttpResponse):
                self._finish(answer)  # refused: 503 draining or 429 shed
            else:
                self._task = asyncio.create_task(self._respond(answer))
        elif outcome is not None or eof:
            self._finish(outcome)  # None: a head cut off by a close

    def _parse(self, eof: bool) -> Union[HttpRequest, HttpResponse, None]:
        """The complete request, an early answer, or None (read on)."""
        buffer = self._buffer
        request = self._request
        if request is None:
            end = buffer.find(b"\r\n\r\n", self._scanned)
            if end < 0:
                self._scanned = max(0, len(buffer) - 3)
                too_long = len(buffer) > MAX_HEADER_BYTES + (0 if eof else 3)
                return _HEAD_TOO_LARGE if too_long else None
            if end > MAX_HEADER_BYTES:
                return _HEAD_TOO_LARGE
            try:
                request, declared = parse_request_head(bytes(buffer[:end]))
            except HttpError as exc:
                error = f"malformed request: {exc}"
                return _json_response(StatusCode.BAD_REQUEST, {"error": error})
            # The declared length is bounded before the body is read on.
            max_body = self._server.service.config.max_body_bytes
            if declared and declared > max_body:
                error = f"body exceeds {max_body} bytes"
                return _json_response(StatusCode.PAYLOAD_TOO_LARGE, {"error": error})
            self._request = request
            self._body = slice(end + 4, end + 4 + (declared or 0))
        if len(buffer) < self._body.stop:
            return _BODY_SHORT if eof else None
        request.body = make_body(bytes(buffer[self._body]))
        return request

    async def _respond(self, answer: Awaitable[HttpResponse]) -> None:
        response: Optional[HttpResponse] = None
        try:
            response = await answer
        except Exception as exc:
            error = f"internal error: {type(exc).__name__}"
            response = _json_response(StatusCode.INTERNAL_SERVER_ERROR, {"error": error})
        finally:
            self._finish(response)

    def _stop_reading(self) -> None:
        self._reading = False
        self._buffer = bytearray()
        self._timer.cancel()

    def _finish(self, response: Optional[HttpResponse]) -> None:
        """Send ``response`` (None: nothing) and close the connection."""
        self._stop_reading()
        if response is not None and not self._transport.is_closing():
            self._transport.write(response.serialize())
        self._transport.close()


class ServeServer:
    """One listening socket in front of one :class:`AnalysisService`."""

    def __init__(
        self,
        service: AnalysisService,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 1,
        runlog: Optional[str] = None,
        drain_grace_s: float = 10.0,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.service = service
        self.host = host
        self.requested_port = port
        self.workers = workers
        self.runlog = runlog
        self.drain_grace_s = drain_grace_s
        self._server: Optional[asyncio.AbstractServer] = None
        # Only simulating batches run here, so a slow exact simulation
        # never stalls the event loop (health probes, socket reads,
        # queue-wait timers); static batches are answered on the loop.
        self._pool = ThreadPoolExecutor(max_workers=workers)
        self._waiters: Deque["asyncio.Future[None]"] = deque()
        self._open_connections = 0
        self._draining = False
        self._drain_event: Optional[asyncio.Event] = None
        self._started_at_mono = 0.0

    # -- lifecycle ----------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound port (resolves ``--port 0`` to the real one)."""
        server = self._server
        if not isinstance(server, asyncio.Server) or not server.sockets:
            return self.requested_port
        return int(server.sockets[0].getsockname()[1])

    async def start(self) -> None:
        self._drain_event = asyncio.Event()
        self._started_at_mono = self.service.clock()
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _Connection(self), host=self.host, port=self.requested_port
        )

    def initiate_drain(self) -> None:
        """Stop accepting; let the in-flight work finish or deadline out."""
        if self._draining:
            return
        self._draining = True
        self.service.draining = True
        if self._server is not None:
            self._server.close()
        if self._drain_event is not None:
            self._drain_event.set()

    async def run_until_drained(self, announce: bool = True) -> int:
        """Serve until SIGTERM/SIGINT, drain gracefully, return 0."""
        await self.start()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, self.initiate_drain)
            except (NotImplementedError, RuntimeError):
                pass
        if announce:
            print(f"repro serve: listening on {self.host}:{self.port}", flush=True)
        assert self._drain_event is not None
        await self._drain_event.wait()
        assert self._server is not None
        await self._server.wait_closed()
        await self._await_quiescence()
        self._pool.shutdown(wait=True)
        self.flush_run_record()
        if announce:
            print("repro serve: drained", flush=True)
        return 0

    async def _await_quiescence(self) -> None:
        clock = self.service.clock
        deadline = clock() + self.drain_grace_s
        admission = self.service.admission
        while clock() < deadline:
            if not (admission.inflight or admission.queued or self._open_connections):
                return
            await asyncio.sleep(0.02)

    def flush_run_record(self) -> None:
        """Append this session's RunRecord to the ledger (if configured)."""
        if self.runlog is None:
            return
        from repro.obs.runlog import RunLedger, record_from_serve

        self.service.refresh_gauges()
        admission = self.service.admission
        record = record_from_serve(
            config=self.describe_config(),
            wall_s=max(0.0, self.service.clock() - self._started_at_mono),
            requests_total=int(admission.admitted_total + admission.shed_total),
            metrics=self.service.metrics.snapshot(),
        )
        RunLedger(self.runlog).append(record)

    def describe_config(self) -> Dict[str, Any]:
        config = self.service.config
        return {
            "host": self.host,
            "port": self.port,
            "workers": self.workers,
            "max_inflight": config.max_inflight,
            "queue_depth": config.queue_depth,
            "default_deadline_ms": config.default_deadline_ms,
            "rate_capacity": config.rate_capacity,
            "rate_refill": config.rate_refill,
        }

    # -- dispatch with admission --------------------------------------------

    def _admit(
        self, request: HttpRequest
    ) -> Union[HttpResponse, Awaitable[HttpResponse]]:
        """Admission, decided the moment ``request`` completes: its answer
        when refused (503 draining, 429 shed), else what its task awaits.
        A queued batch takes its place in the queue here too, so a batch
        finishing before the queued task first runs still promotes it."""
        if request.method != "POST" or request.path not in _BATCH_PATHS:
            return self._answer(request)
        if self._draining:
            return _json_response(
                StatusCode.SERVICE_UNAVAILABLE,
                {"error": "draining"},
                extra_headers=(("Retry-After", "1"),),
            )
        decision = self.service.admission.decide(self.service.clock())
        if decision.outcome == SHED:
            return self.service.shed_response(request, decision)
        place: Optional["asyncio.Future[None]"] = None
        if decision.outcome == ENQUEUE:
            place = asyncio.get_running_loop().create_future()
            self._waiters.append(place)
        return self._run_batch(request, place)

    async def _answer(self, request: HttpRequest) -> HttpResponse:
        return self.service.handle(request)

    async def _run_batch(
        self, request: HttpRequest, place: Optional["asyncio.Future[None]"]
    ) -> HttpResponse:
        """Wait out a queue ``place`` (None: admitted), then answer: on a
        worker thread when the batch simulates, else inline."""
        admission = self.service.admission
        if place is not None and not await self._wait_in_queue(place):
            decision = AdmissionDecision(
                SHED,
                retry_after_s=admission.estimated_wait_s(admission.queued + 1),
                reason="queue-timeout",
            )
            return self.service.shed_response(request, decision)
        started = self.service.clock()
        try:
            plan = self.service.plan(request)
            route = "worker" if plan.simulates else "loop"
            self.service.metrics.counter(
                SERVE_BATCHES, "batch requests by where they ran"
            ).inc(route=route)
            if not plan.simulates:
                return self.service.handle(request, plan)
            loop = asyncio.get_running_loop()
            return await loop.run_in_executor(
                self._pool, self.service.handle, request, plan
            )
        finally:
            admission.release(self.service.clock() - started)
            self._promote_next()

    async def _wait_in_queue(self, future: "asyncio.Future[None]") -> bool:
        """Park until ``future`` is promoted; False when the wait budget
        ran out."""
        timeout = self.service.admission.max_queue_wait_s
        try:
            await asyncio.wait_for(future, timeout=timeout)
            return True
        except asyncio.TimeoutError:
            return self._resolve_queue_timeout(future)

    def _resolve_queue_timeout(self, future: "asyncio.Future[None]") -> bool:
        """Reconcile a queue-wait timeout against concurrent promotion.

        On 3.10/3.11, ``wait_for`` cancels the future and yields before
        raising, so :meth:`_promote_next` may pop and skip it without
        ``promote()``.  Only a future holding a *result* was promoted; a
        cancelled one never got the slot and still counts as queued."""
        try:
            self._waiters.remove(future)
        except ValueError:
            if not future.cancelled():
                return True  # promoted concurrently: take the slot
        self.service.admission.leave_queue()
        return False

    def _promote_next(self) -> None:
        admission = self.service.admission
        while self._waiters and admission.inflight < admission.max_inflight:
            future = self._waiters.popleft()
            if future.done():
                continue
            admission.promote()
            future.set_result(None)

