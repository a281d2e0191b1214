"""Shared test helpers."""

from __future__ import annotations

from typing import Optional, Union

import pytest

from repro.cdn.node import CdnNode
from repro.cdn.vendors import create_profile
from repro.handler import HttpHandler
from repro.http.headers import Headers
from repro.http.message import HttpRequest, HttpResponse
from repro.http.status import StatusCode
from repro.netsim.tap import TrafficLedger
from repro.origin.server import OriginServer


def make_origin(
    size: int = 1000,
    path: str = "/file.bin",
    range_support: bool = True,
) -> OriginServer:
    """An origin serving one synthetic resource."""
    origin = OriginServer(range_support=range_support)
    origin.add_synthetic_resource(path, size)
    return origin


class FlakyOrigin(HttpHandler):
    """Wraps a handler; fails every ``period``-th request with ``status``.

    The failure response carries ``Retry-After: {retry_after}`` (omitted
    when ``retry_after`` is None).
    """

    def __init__(
        self,
        inner: HttpHandler,
        period: int = 2,
        status: int = int(StatusCode.SERVICE_UNAVAILABLE),
        retry_after: Optional[Union[int, str]] = 1,
    ) -> None:
        if period < 1:
            raise ValueError(f"period must be >= 1, got {period!r}")
        self.inner = inner
        self.period = period
        self.status = status
        self.retry_after = retry_after
        self._count = 0

    @property
    def requests_seen(self) -> int:
        return self._count

    def handle(self, request: HttpRequest) -> HttpResponse:
        self._count += 1
        if self._count % self.period == 0:
            pairs = [("Content-Length", "0")]
            if self.retry_after is not None:
                pairs.append(("Retry-After", str(self.retry_after)))
            return HttpResponse(self.status, headers=Headers(pairs))
        return self.inner.handle(request)


def make_node(vendor: str, origin: OriginServer, **kwargs) -> CdnNode:
    """A single CDN node in front of ``origin`` with its own ledger."""
    profile = create_profile(vendor)
    kwargs.setdefault("ledger", TrafficLedger())
    kwargs.setdefault("size_hint_fn", lambda p: _size_of(origin, p))
    return CdnNode(profile, origin, **kwargs)


def _size_of(origin: OriginServer, path: str) -> Optional[int]:
    try:
        return origin.store.get(path).size
    except Exception:
        return None


def get(handler, target="/file.bin", range_value=None, host="victim.example"):
    """Send one GET straight at a handler (no client-side accounting)."""
    headers = [("Host", host)]
    if range_value is not None:
        headers.append(("Range", range_value))
    return handler.handle(HttpRequest("GET", target, headers=headers))


@pytest.fixture
def origin_1k() -> OriginServer:
    return make_origin(size=1000)
