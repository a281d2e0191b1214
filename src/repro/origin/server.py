"""Apache-like origin server.

Reproduces the behaviors of the paper's origin (Apache/2.4.18, default
configuration) that the attacks depend on:

* With range support **enabled** (default): valid single ranges get a
  single-part 206 with ``Content-Range``; valid disjoint multi-ranges get
  a ``multipart/byteranges`` 206; out-of-bounds ranges get a 416 with
  ``Content-Range: bytes */N``.
* The post-CVE-2011-3192 ("Apache Killer") guard: a multi-range request
  with overlapping ranges or more than ``max_ranges`` parts is answered
  with a plain 200 carrying the whole representation — Apache's actual
  fix downgrades abusive range sets to a full response.
* With range support **disabled** (how the OBR attacker configures the
  origin): the ``Range`` header is ignored, every request gets a 200 with
  the entire resource and no ``Accept-Ranges`` header.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.errors import RangeNotSatisfiableError, ResourceNotFoundError
from repro.faults.plan import RETRY_AFTER_S, FaultRule, current_faults
from repro.http.body import SyntheticBody
from repro.http.encoding import IDENTITY, accepts_encoding
from repro.http.headers import Headers
from repro.http.message import HttpRequest, HttpResponse
from repro.http.multipart import MultipartByteranges
from repro.http.ranges import (
    RangeRun,
    format_content_range,
    format_unsatisfied_content_range,
    ranges_overlap,
    try_parse_range_header,
)
from repro.http.status import StatusCode
from repro.obs.tracer import current_tracer
from repro.origin.resource import Resource, ResourceStore

#: Fixed Date header: the simulation is deterministic, and a changing
#: Date would jitter the traffic accounting by a byte now and then.
_FIXED_DATE = "Fri, 05 Jun 2020 08:00:00 GMT"

#: The origin's Server header: the paper's Apache testbed.
SERVER_HEADER = "Apache/2.4.18 (Ubuntu)"

#: Apache 2.4's effective cap on the number of ranges it will serve.
DEFAULT_MAX_RANGES = 200

#: Multipart boundary shaped like Apache's (13 hex digits).
_APACHE_BOUNDARY = "3d6b6a416f9b5"


@dataclass
class OriginStats:
    """Counters the experiments read back after a run."""

    requests: int = 0
    full_responses: int = 0
    partial_responses: int = 0
    multipart_responses: int = 0
    not_satisfiable: int = 0
    bytes_sent: int = 0


class OriginServer:
    """A synchronous origin server over a :class:`ResourceStore`."""

    def __init__(
        self,
        range_support: bool = True,
        max_ranges: int = DEFAULT_MAX_RANGES,
        reject_overlapping: bool = True,
    ) -> None:
        self.store = ResourceStore()
        self.range_support = range_support
        self.max_ranges = max_ranges
        self.reject_overlapping = reject_overlapping
        self.stats = OriginStats()

    # -- public API ---------------------------------------------------------

    def add_resource(self, resource: Resource) -> Resource:
        return self.store.add(resource)

    def add_synthetic_resource(self, path: str, size: int) -> Resource:
        return self.store.add_synthetic(path, size)

    def handle(self, request: HttpRequest) -> HttpResponse:
        """Answer ``request`` (GET/HEAD; anything else is a 400)."""
        with current_tracer().span("origin.handle") as span:
            if span.recording:
                span.set(
                    method=request.method,
                    target=request.target,
                    range=request.headers.get("Range") or "",
                    range_support=self.range_support,
                )
            response = self._handle_traced(request)
            if span.recording:
                span.set(status=response.status, body_bytes=len(response.body))
            return response

    def _handle_traced(self, request: HttpRequest) -> HttpResponse:
        self.stats.requests += 1
        injector = current_faults()
        if injector is not None:
            fault = injector.origin_fault(request.path)
            if fault is not None:
                return self._finish(self._fault_response(fault))
        if request.method not in ("GET", "HEAD"):
            return self._finish(self._error(StatusCode.BAD_REQUEST))
        try:
            resource = self.store.get(request.path)
        except ResourceNotFoundError:
            return self._finish(self._error(StatusCode.NOT_FOUND))

        response = self._respond_for(resource, request)
        if request.method == "HEAD":
            response.body = response.body.slice(0, 0)
        return self._finish(response)

    # -- response construction ----------------------------------------------

    def _respond_for(self, resource: Resource, request: HttpRequest) -> HttpResponse:
        if not self.range_support:
            return self._full_response(resource, advertise_ranges=False)

        if request.method != "GET":
            # RFC 7233 §3.1: "A server MUST ignore a Range header field
            # received with a request method other than GET."
            return self._full_response(resource)

        spec = try_parse_range_header(request.range_header)
        if spec is None:
            # No Range header, or one we must ignore per RFC 7233 §3.1.
            encoded = self._encoded_response(resource, request)
            if encoded is not None:
                return encoded
            return self._full_response(resource)

        if not self._if_range_allows_partial(resource, request):
            # RFC 7233 §3.2: a failed If-Range validator downgrades the
            # range request to a full 200.
            return self._full_response(resource)

        try:
            resolved = spec.resolve(resource.size)
        except RangeNotSatisfiableError:
            self.stats.not_satisfiable += 1
            return self._not_satisfiable(resource)

        count = sum(n for _, n in resolved)
        if count == 1:
            only = resolved[0][0]
            return self._single_part(resource, only.start, only.end)

        if self._abusive_multirange(resolved, count):
            # Apache's CVE-2011-3192 fix: downgrade to a full response.
            return self._full_response(resource)

        return self._multipart(resource, resolved)

    def _abusive_multirange(self, resolved: List[RangeRun], count: int) -> bool:
        if count > self.max_ranges:
            return True
        return self.reject_overlapping and ranges_overlap(resolved)

    def _if_range_allows_partial(self, resource: Resource, request: HttpRequest) -> bool:
        """RFC 7233 §3.2: serve the range only when the If-Range
        validator (strong ETag or HTTP-date) matches the current
        representation; absent header means unconditional."""
        validator = request.headers.get("If-Range")
        if validator is None:
            return True
        validator = validator.strip()
        if validator.startswith('"') or validator.startswith('W/"'):
            # Weak validators are never a match for If-Range.
            return validator == resource.etag
        return validator == resource.last_modified

    def _base_headers(self, resource: Resource, advertise_ranges: bool = True) -> Headers:
        headers = Headers(
            [
                ("Date", _FIXED_DATE),
                ("Server", SERVER_HEADER),
                ("Last-Modified", resource.last_modified),
                ("ETag", resource.etag),
            ]
        )
        if self.range_support and advertise_ranges:
            headers.add("Accept-Ranges", "bytes")
        if resource.cache_control is not None:
            headers.add("Cache-Control", resource.cache_control)
        return headers

    def _full_response(self, resource: Resource, advertise_ranges: bool = True) -> HttpResponse:
        self.stats.full_responses += 1
        headers = self._base_headers(resource, advertise_ranges)
        headers.add("Content-Length", str(resource.size))
        headers.add("Content-Type", resource.content_type)
        return HttpResponse(StatusCode.OK, headers=headers, body=resource.content)

    def _encoded_response(self, resource: Resource, request: HttpRequest) -> Optional[HttpResponse]:
        """Proactive content negotiation (RFC 7231 §5.3.4) over the
        resource's pre-compressed variants.

        The origin serves the **smallest** acceptable non-identity
        variant — the egress-minimizing choice a CCFC attacker's origin
        makes (arXiv 2409.00712 §III).  Returns ``None`` when the
        resource has no variants, the request carries no
        ``Accept-Encoding``, or no non-identity variant is acceptable;
        the caller then falls back to the identity representation.
        """
        if not resource.encodings:
            return None
        accept = request.headers.get("Accept-Encoding")
        if accept is None:
            return None
        candidates = [
            (size, coding)
            for coding, size in resource.encodings.items()
            if coding.lower() != IDENTITY and accepts_encoding(accept, coding)
        ]
        if not candidates:
            return None
        size, coding = min(candidates)
        self.stats.full_responses += 1
        headers = self._base_headers(resource)
        headers.add("Content-Length", str(size))
        headers.add("Content-Type", resource.content_type)
        headers.add("Content-Encoding", coding)
        headers.add("Vary", "Accept-Encoding")
        return HttpResponse(StatusCode.OK, headers=headers, body=SyntheticBody(size))

    def _single_part(self, resource: Resource, start: int, end: int) -> HttpResponse:
        self.stats.partial_responses += 1
        headers = self._base_headers(resource)
        headers.add("Content-Length", str(end - start + 1))
        headers.add("Content-Range", format_content_range(start, end, resource.size))
        headers.add("Content-Type", resource.content_type)
        return HttpResponse(
            StatusCode.PARTIAL_CONTENT,
            headers=headers,
            body=resource.content.slice(start, end + 1),
        )

    def _multipart(self, resource: Resource, resolved: List[RangeRun]) -> HttpResponse:
        self.stats.multipart_responses += 1
        multipart = MultipartByteranges.build(
            resource_body=resource.content,
            ranges=resolved,
            content_type=resource.content_type,
            complete_length=resource.size,
            boundary=_APACHE_BOUNDARY,
        )
        body = multipart.to_body()
        headers = self._base_headers(resource)
        headers.add("Content-Length", str(len(body)))
        headers.add("Content-Type", multipart.content_type_header)
        return HttpResponse(StatusCode.PARTIAL_CONTENT, headers=headers, body=body)

    def _not_satisfiable(self, resource: Resource) -> HttpResponse:
        headers = self._base_headers(resource)
        headers.add("Content-Range", format_unsatisfied_content_range(resource.size))
        headers.add("Content-Length", "0")
        return HttpResponse(StatusCode.RANGE_NOT_SATISFIABLE, headers=headers)

    def _error(self, status: StatusCode) -> HttpResponse:
        body = f"{int(status)} {status.name}\n"
        headers = Headers(
            [
                ("Date", _FIXED_DATE),
                ("Server", SERVER_HEADER),
                ("Content-Length", str(len(body))),
                ("Content-Type", "text/plain"),
            ]
        )
        return HttpResponse(status, headers=headers, body=body)

    def _fault_response(self, fault: FaultRule) -> HttpResponse:
        response = self._error(StatusCode(fault.status))
        response.headers.add("Retry-After", str(RETRY_AFTER_S))
        return response

    def _finish(self, response: HttpResponse) -> HttpResponse:
        self.stats.bytes_sent += response.wire_size()
        return response
