"""Per-client rate limiting as a CDN-side defense — and its limits.

Paper §VI-C argues that local DoS defenses struggle against RangeAmp:
"attack requests are no different from benign requests and come from
widely distributed CDN nodes".  This module makes that argument
quantitative with a classic token-bucket limiter:

* :class:`TokenBucket` — capacity/refill-rate bucket over a simulated
  clock;
* :class:`RateLimitedHandler` — wraps any handler and answers HTTP 429
  once a client key exhausts its bucket.

The key function is pluggable because *what to key on* is exactly the
hard part: keying on the client address is defeated by address rotation,
keying on the URL path is defeated by cache busting only if the query
string is included in the key, and keying on the bare path throttles
benign clients of popular objects.  The tests exercise all three.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.handler import HttpHandler
from repro.http.headers import Headers
from repro.http.message import HttpRequest, HttpResponse
from repro.http.status import StatusCode
from repro.netsim.clock import SimClock


@dataclass
class TokenBucket:
    """A standard token bucket: ``capacity`` burst, ``refill_rate``
    tokens per second."""

    capacity: float
    refill_rate: float
    tokens: float = field(init=False)
    last_refill: float = field(init=False, default=0.0)

    def __post_init__(self) -> None:
        if self.capacity <= 0 or self.refill_rate < 0:
            raise ValueError(
                f"invalid bucket (capacity={self.capacity}, "
                f"refill_rate={self.refill_rate})"
            )
        self.tokens = self.capacity

    def _refill(self, now: float) -> None:
        if now > self.last_refill:
            self.tokens = min(
                self.capacity, self.tokens + (now - self.last_refill) * self.refill_rate
            )
            self.last_refill = now

    def allow(self, now: float, cost: float = 1.0) -> bool:
        """Take ``cost`` tokens at time ``now`` if available."""
        self._refill(now)
        if self.tokens >= cost:
            self.tokens -= cost
            return True
        return False

    def peek(self, now: float, cost: float = 1.0) -> bool:
        """Would :meth:`allow` succeed at ``now``?  Takes nothing."""
        return self.available(now) >= cost

    def available(self, now: float) -> float:
        """Tokens that would be on hand at ``now`` (no mutation)."""
        if now <= self.last_refill:
            return self.tokens
        return min(
            self.capacity, self.tokens + (now - self.last_refill) * self.refill_rate
        )

    def retry_after(self, now: float, cost: float = 1.0) -> float:
        """Seconds from ``now`` until ``cost`` tokens will be on hand.

        ``0.0`` when the take would succeed immediately; ``inf`` when
        the bucket can never refill that far (zero rate, or a cost above
        capacity).  This is the honest ``Retry-After`` value a shedding
        server should advertise.
        """
        shortfall = cost - self.available(now)
        if shortfall <= 0:
            return 0.0
        if self.refill_rate <= 0 or cost > self.capacity:
            return float("inf")
        return shortfall / self.refill_rate


#: The header carrying the client's source address.
CLIENT_ADDRESS_HEADER = "X-Client-Address"


def key_by_client_header() -> Callable[[HttpRequest], str]:
    """Key requests by the client's source address header."""

    def key(request: HttpRequest) -> str:
        return request.headers.get(CLIENT_ADDRESS_HEADER, "unknown")

    return key


def key_by_path(include_query: bool = False) -> Callable[[HttpRequest], str]:
    """Key requests by target path (optionally including the query
    string — including it makes the limiter blind to cache busting)."""

    def key(request: HttpRequest) -> str:
        return request.target if include_query else request.path

    return key


class RateLimitedHandler(HttpHandler):
    """Wraps a handler with per-key token-bucket limiting."""

    def __init__(
        self,
        inner: HttpHandler,
        rate_per_second: float,
        burst: float,
        clock: Optional[SimClock] = None,
        key_fn: Optional[Callable[[HttpRequest], str]] = None,
    ) -> None:
        self.inner = inner
        self.rate_per_second = rate_per_second
        self.burst = burst
        self.clock = clock if clock is not None else SimClock()
        self.key_fn = key_fn if key_fn is not None else key_by_client_header()
        self._buckets: Dict[str, TokenBucket] = {}
        self.rejected = 0
        self.admitted = 0

    def handle(self, request: HttpRequest) -> HttpResponse:
        key = self.key_fn(request)
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = TokenBucket(capacity=self.burst, refill_rate=self.rate_per_second)
            self._buckets[key] = bucket
        if not bucket.allow(self.clock.now):
            self.rejected += 1
            return self._too_many_requests()
        self.admitted += 1
        return self.inner.handle(request)

    def tracked_keys(self) -> int:
        """How many distinct keys the limiter is holding state for —
        itself a resource-exhaustion concern under key rotation."""
        return len(self._buckets)

    @staticmethod
    def _too_many_requests() -> HttpResponse:
        body = b"rate limit exceeded\n"
        return HttpResponse(
            StatusCode.TOO_MANY_REQUESTS,
            headers=Headers(
                [
                    ("Content-Type", "text/plain"),
                    ("Content-Length", str(len(body))),
                    ("Retry-After", "1"),
                ]
            ),
            body=body,
        )
