"""StackPath profile.

Paper findings reproduced here (§V-A item 5, Tables I–III):

* Table I — StackPath first forwards a single-range request under
  *Laziness*; if the origin answers 206, it immediately re-forwards the
  request **without** the Range header over a second connection
  (``bytes=first-last [& None]``), making it SBR-vulnerable with origin
  traffic of one small 206 plus the full representation.
* Table II — multi-range requests are forwarded unchanged (OBR
  front-end); Table V shows a single back-end fetch for these, so the
  206-triggered re-forward applies to single-range requests only.
* Table III — honors overlapping multi-range requests (OBR back-end).
* §V-C — total request headers limited to ~81 KB.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.cdn.limits import HeaderLimits
from repro.cdn.multirange import MultiRangeReplyBehavior
from repro.cdn.policy import ForwardDecision, ForwardPolicy
from repro.cdn.vendors.base import (
    ExchangeFn,
    FetchResult,
    SpecShape,
    VendorContext,
    VendorProfile,
    classify_spec,
)
from repro.cdn.window import ContentWindow
from repro.http.message import HttpRequest
from repro.http.ranges import RangeSpecifier
from repro.http.status import StatusCode


class StackpathProfile(VendorProfile):
    name = "stackpath"
    display_name = "StackPath"
    reply_behavior = MultiRangeReplyBehavior.HONOR
    server_header = "StackPath"
    # 69-character boundary, calibrated to Table V's per-part bytes.
    multipart_boundary = "sp" + "0123456789abcdef" * 4 + "012"
    client_header_block_target = 808
    pad_header_name = "X-SP-Request-Id"
    # The SBR vulnerability is in the fetch flow (lazy, then refetch the
    # whole representation on a 206), not the decision table.
    refetches_after_partial = True

    def default_limits(self) -> HeaderLimits:
        return HeaderLimits(max_total_header_bytes=81 * 1024)

    def fetch(
        self,
        request: HttpRequest,
        spec: Optional[RangeSpecifier],
        ctx: VendorContext,
        exchange: ExchangeFn,
    ) -> FetchResult:
        if spec is None:
            return super().fetch(request, spec, ctx, exchange)

        lazy_request = self.build_upstream_request(
            request, ForwardDecision.lazy(request.range_header)
        )
        first = exchange(lazy_request, note="forward:laziness")
        if first.status == StatusCode.OK:
            # Origin ignored the Range header: serve from the full body
            # (the OBR back-end path).
            return FetchResult(
                window=ContentWindow.full(first.body),
                policy=ForwardPolicy.LAZINESS,
                upstream_status=200,
                cacheable_full=True,
                source_headers=first.headers,
            )
        if first.status != StatusCode.PARTIAL_CONTENT:
            return FetchResult(
                passthrough=first,
                policy=ForwardPolicy.LAZINESS,
                upstream_status=first.status,
            )
        if classify_spec(spec) is SpecShape.MULTI or not self.refetches_after_partial:
            # Multi-range 206s are relayed as-is (OBR front-end path), and
            # so is every 206 of a flow that declares no refetch.
            return FetchResult(
                passthrough=first,
                policy=ForwardPolicy.LAZINESS,
                upstream_status=206,
            )
        # Single-range 206: re-forward without the Range header to pull
        # and cache the whole representation.
        refetch = self.build_upstream_request(request, ForwardDecision.delete())
        second = exchange(refetch, note="forward:deletion (refetch after 206)")
        if second.status != StatusCode.OK:
            return FetchResult(
                passthrough=first,
                policy=ForwardPolicy.LAZINESS,
                upstream_status=first.status,
            )
        return FetchResult(
            window=ContentWindow.full(second.body),
            policy=ForwardPolicy.DELETION,
            upstream_status=200,
            cacheable_full=True,
            source_headers=second.headers,
        )

    def forward_headers(self) -> List[Tuple[str, str]]:
        return [
            ("Via", "1.1 varnish (StackPath)"),
            ("X-SP-Edge", "sp-edge-fra1"),
            ("X-Forwarded-For", "198.51.100.7"),
        ]

    def response_headers(self) -> List[Tuple[str, str]]:
        return [
            ("Connection", "keep-alive"),
            ("X-HW", "1593932400.dop005.fr8.t,1593932400.cds020.fr8.c"),
            ("X-Cache", "MISS"),
        ]
