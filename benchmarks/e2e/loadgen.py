"""Loopback load for ``repro serve``: open-loop and closed-loop phases.

The server answers one request per connection (``Connection: close``),
so every request opens its own TCP connection.  At most ``concurrency``
requests are in flight at once, whatever the schedule says.

Open loop: request ``i`` is *due* at ``start + due[i]``.  Its latency is
timed from that due time, not from when it was sent, so a stalled
server also charges the wait it imposes on every request queued behind
it; how late the generator sent each request is reported as well.
Closed loop: each caller sends its next request when the previous
answer arrives, for a fixed duration or request count.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from typing import Awaitable, Callable, Iterator, List, Optional, Sequence, Tuple

from inputs import Request

#: ``send(request) -> (status, body)``.
Sender = Callable[[Request], Awaitable[Tuple[int, bytes]]]


@dataclass
class PhaseResult:
    """What one phase measured; latencies and lateness in seconds."""

    latencies: List[float] = field(default_factory=list)
    #: Send time minus due time (open loop only).
    lateness: List[float] = field(default_factory=list)
    #: Completion minus send time: the part the server and socket own.
    service: List[float] = field(default_factory=list)
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    elapsed_s: float = 0.0

    def extend(self, other: "PhaseResult") -> None:
        """Pool another segment of the same phase into this one."""
        self.latencies += other.latencies
        self.lateness += other.lateness
        self.service += other.service
        self.attempted += other.attempted
        self.failures += other.failures
        self.elapsed_s += other.elapsed_s


def check_response(status: int, body: bytes, items: int) -> Optional[str]:
    """Why a batch response counts as failed, or ``None``."""
    if status != 200:
        return f"status {status}"
    try:
        payload = json.loads(body)
    except ValueError:
        return "response is not JSON"
    results = payload.get("results") if isinstance(payload, dict) else None
    if not isinstance(results, list) or len(results) != items:
        return "response does not carry one result per item"
    if payload.get("partial") or payload.get("degraded"):
        return "partial or degraded response"
    for result in results:
        if not isinstance(result, dict) or "error" in result or result.get("degraded"):
            return f"item failed: {result!r:.120}"
    return None


def http_sender(host: str, port: int, timeout_s: float = 10.0) -> Sender:
    async def send(request: Request) -> Tuple[int, bytes]:
        head = (
            f"POST {request.path} HTTP/1.1\r\nHost: {host}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(request.body)}\r\n\r\n"
        ).encode("ascii")
        return await exchange(host, port, head + request.body, timeout_s)

    return send


async def exchange(host: str, port: int, raw: bytes, timeout_s: float = 10.0) -> Tuple[int, bytes]:
    """Send one raw request; ``(status, body)`` of the answer."""
    reader, writer = await asyncio.wait_for(asyncio.open_connection(host, port), timeout_s)
    try:
        writer.write(raw)
        await writer.drain()
        response = await asyncio.wait_for(reader.read(), timeout_s)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass
    head, _, body = response.partition(b"\r\n\r\n")
    status_line = head.split(b"\r\n", 1)[0].split()
    return int(status_line[1]) if len(status_line) > 1 else 0, body


async def _one(send: Sender, request: Request, result: PhaseResult, clock: Callable[[], float]) -> float:
    """Send and check one request; returns its completion time."""
    try:
        status, body = await send(request)
        failure = check_response(status, body, request.items)
    except (OSError, asyncio.TimeoutError, ValueError) as exc:
        failure = f"{type(exc).__name__}: {exc}"
    if failure is not None:
        result.failures.append(failure)
    return clock()


async def open_loop(
    send: Sender,
    requests: Sequence[Request],
    due: Sequence[float],
    concurrency: int = 2,
    clock: Callable[[], float] = time.perf_counter,
) -> PhaseResult:
    """Send ``requests[i]`` at ``due[i]`` seconds after the start."""
    result = PhaseResult(attempted=len(requests))
    slots = asyncio.Semaphore(concurrency)
    start = clock()

    async def timed(request: Request, due_at: float, sent: float) -> None:
        try:
            done = await _one(send, request, result, clock)
        finally:
            slots.release()
        result.latencies.append(done - due_at)
        result.service.append(done - sent)

    tasks = []
    for request, offset in zip(requests, due):
        due_at = start + offset
        delay = due_at - clock()
        if delay > 0:
            await asyncio.sleep(delay)
        await slots.acquire()
        sent = clock()
        result.lateness.append(sent - due_at)
        tasks.append(asyncio.create_task(timed(request, due_at, sent)))
    await asyncio.gather(*tasks)
    result.elapsed_s = clock() - start
    return result


async def closed_loop(
    send: Sender,
    requests: Iterator[Request],
    callers: int = 2,
    clock: Callable[[], float] = time.perf_counter,
) -> PhaseResult:
    """``callers`` back-to-back callers until ``requests`` runs out."""
    result = PhaseResult()
    start = clock()

    async def caller() -> None:
        for request in requests:
            result.attempted += 1
            sent = clock()
            done = await _one(send, request, result, clock)
            result.latencies.append(done - sent)
            result.service.append(done - sent)

    await asyncio.gather(*(caller() for _ in range(callers)))
    result.elapsed_s = clock() - start
    return result
