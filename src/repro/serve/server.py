"""The asyncio edge: sockets, queueing, drain; wall time lives here.

:class:`ServeServer` glues :class:`~repro.serve.app.AnalysisService` to
``asyncio.start_server``.  Responsibilities split cleanly:

* the **service** decides what any request means (and is fully
  deterministic under its injected clock);
* the **server** owns connections, the admission futures (who waits,
  who is promoted, in what order), worker threads, and the drain
  protocol.

DoS posture at this layer: one read deadline per request (head and
body together) kills slowloris connections, ``readuntil`` with a byte
limit caps header blocks, ``Content-Length`` is checked *before* the
body is read, a head or body that does not parse gets a 400, and every
batch request passes through admission control before any JSON is
parsed.

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
from typing import Any, Callable, Deque, Dict, Optional, Union

from repro.errors import HttpError
from repro.http.headers import Headers
from repro.http.message import HttpRequest, HttpResponse
from repro.http.status import StatusCode
from repro.http.wire import parse_request
from repro.serve.admission import ADMIT, ENQUEUE, AdmissionDecision
from repro.serve.app import AnalysisService, _json_response

#: Maximum bytes of request head (request line + headers).
MAX_HEADER_BYTES = 16 * 1024
#: Seconds a client may take to send its whole request, head and body.
READ_TIMEOUT_S = 10.0

_BATCH_PATHS = ("/v1/analyze", "/v1/recommend")


def _malformed(exc: HttpError) -> HttpResponse:
    """The 400 for a request head or body that does not parse."""
    return _json_response(
        StatusCode.BAD_REQUEST, {"error": f"malformed request: {exc}"}
    )


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
        wall_clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.service = service
        self.host = host
        self.requested_port = port
        self.workers = workers
        self.runlog = runlog
        self.drain_grace_s = drain_grace_s
        #: Only used to timestamp the drain RunRecord; ``None`` defers
        #: to the ledger's default wall clock.
        self.wall_clock = wall_clock
        self._server: Optional[asyncio.AbstractServer] = None
        # Batch work always runs on worker threads — even with one
        # worker — so a slow exact simulation can never stall the event
        # loop (health probes, socket reads, queue-wait timers).
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
        self._server = await asyncio.start_server(
            self._on_connection,
            host=self.host,
            port=self.requested_port,
            limit=MAX_HEADER_BYTES,
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
            if (
                admission.inflight == 0
                and admission.queued == 0
                and self._open_connections == 0
            ):
                return
            await asyncio.sleep(0.02)

    def flush_run_record(self) -> None:
        """Append this session's RunRecord to the ledger (if configured)."""
        if self.runlog is None:
            return
        from repro.obs.runlog import RunLedger, record_from_serve

        self.service.refresh_gauges()
        record = record_from_serve(
            config=self.describe_config(),
            wall_s=max(0.0, self.service.clock() - self._started_at_mono),
            requests_total=int(
                self.service.admission.admitted_total
                + self.service.admission.shed_total
            ),
            metrics=self.service.metrics.snapshot(),
            clock=self.wall_clock,
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

    # -- connection handling ------------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._open_connections += 1
        try:
            response = await self._respond(reader)
            if response is not None:
                writer.write(response.serialize())
                await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self._open_connections -= 1
            try:
                writer.close()
            except Exception:
                pass

    async def _respond(
        self, reader: asyncio.StreamReader
    ) -> Optional[HttpResponse]:
        request = await self._read_request(reader)
        if isinstance(request, HttpResponse):
            return request  # an early protocol-level error response
        if request is None:
            return None  # client went away; nothing to say
        try:
            return await self._dispatch(request)
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            return _json_response(
                StatusCode.INTERNAL_SERVER_ERROR,
                {"error": f"internal error: {type(exc).__name__}"},
            )

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Union[HttpRequest, HttpResponse, None]:
        """One request off the wire, or an error HttpResponse, or None
        (the client went away before finishing its request head)."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + READ_TIMEOUT_S
        try:
            head = await asyncio.wait_for(
                reader.readuntil(b"\r\n\r\n"), timeout=READ_TIMEOUT_S
            )
        except asyncio.IncompleteReadError:
            return None
        except (asyncio.TimeoutError, asyncio.LimitOverrunError):
            return _json_response(
                StatusCode.REQUEST_HEADER_FIELDS_TOO_LARGE,
                {"error": "request head too large or too slow"},
            )
        # Peek at the header block for the body's framing *before*
        # reading (and bounding) the body itself.
        _, _, header_blob = head[:-4].partition(b"\r\n")
        try:
            headers = Headers.parse(header_blob + b"\r\n" if header_blob else b"")
            declared = headers.get_int("Content-Length")
        except HttpError as exc:
            return _malformed(exc)
        body = b""
        if declared is not None and declared > 0:
            if declared > self.service.config.max_body_bytes:
                return _json_response(
                    StatusCode.PAYLOAD_TOO_LARGE,
                    {
                        "error": (
                            f"body exceeds {self.service.config.max_body_bytes}"
                            " bytes"
                        )
                    },
                )
            try:
                body = await asyncio.wait_for(
                    reader.readexactly(declared), timeout=deadline - loop.time()
                )
            except (asyncio.IncompleteReadError, asyncio.TimeoutError):
                return _json_response(
                    StatusCode.BAD_REQUEST,
                    {"error": "request body shorter than Content-Length or too slow"},
                )
        try:
            return parse_request(head + body)
        except HttpError as exc:
            return _malformed(exc)

    # -- dispatch with admission --------------------------------------------

    async def _dispatch(self, request: HttpRequest) -> HttpResponse:
        if request.method == "POST" and request.path in _BATCH_PATHS:
            return await self._dispatch_batch(request)
        return self.service.handle(request)

    async def _dispatch_batch(self, request: HttpRequest) -> HttpResponse:
        admission = self.service.admission
        if self._draining:
            return _json_response(
                StatusCode.SERVICE_UNAVAILABLE,
                {"error": "draining"},
                extra_headers=(("Retry-After", "1"),),
            )
        decision = admission.decide(self.service.clock())
        if decision.outcome == ENQUEUE:
            admitted = await self._wait_in_queue()
            if not admitted:
                decision = AdmissionDecision(
                    "shed",
                    retry_after_s=admission.estimated_wait_s(admission.queued + 1),
                    reason="queue-timeout",
                )
                return self.service.shed_response(request, decision)
        elif decision.outcome != ADMIT:
            return self.service.shed_response(request, decision)
        started = self.service.clock()
        try:
            loop = asyncio.get_running_loop()
            return await loop.run_in_executor(
                self._pool, self.service.handle, request
            )
        finally:
            admission.release(self.service.clock() - started)
            self._promote_next()

    async def _wait_in_queue(self) -> bool:
        """Park until promoted; False when the wait budget ran out."""
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[None]" = loop.create_future()
        self._waiters.append(future)
        try:
            await asyncio.wait_for(
                future, timeout=self.service.admission.max_queue_wait_s
            )
            return True
        except asyncio.TimeoutError:
            return self._resolve_queue_timeout(future)

    def _resolve_queue_timeout(self, future: "asyncio.Future[None]") -> bool:
        """Reconcile a queue-wait timeout against concurrent promotion.

        On 3.10/3.11, ``wait_for`` cancels the future and yields to the
        loop before raising, so :meth:`_promote_next` may pop the
        already-cancelled future and skip it without ``promote()``.
        Only a future holding a *result* was really promoted; a
        cancelled one never got the slot and still counts as queued.
        """
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


async def serve_until_drained(
    service: AnalysisService,
    host: str = "127.0.0.1",
    port: int = 0,
    workers: int = 1,
    runlog: Optional[str] = None,
    drain_grace_s: float = 10.0,
) -> int:
    """Convenience wrapper for the CLI: build, run, drain, exit code."""
    server = ServeServer(
        service,
        host=host,
        port=port,
        workers=workers,
        runlog=runlog,
        drain_grace_s=drain_grace_s,
    )
    return await server.run_until_drained()
