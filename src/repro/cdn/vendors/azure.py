"""Azure CDN profile.

Paper findings reproduced here (§V-A item 2, Tables I–III):

* For ``bytes=first-last`` Azure first applies *Deletion*.  If the
  resource turns out to be larger than 8 MB, Azure closes that first
  back-to-origin connection as soon as a little over 8 MB of payload has
  arrived ("considering network latency, actual response traffic in the
  first connection will be a little larger than 8MB").
* If additionally ``[first, last] ⊂ [8388608, 16777215]``, Azure opens a
  *second* back-to-origin connection with the *Expansion* range
  ``bytes=8388608-16777215``.  Result: for resources over 16 MB the two
  connections move ≈ 8 MB each, capping the SBR amplification (the Fig 6a
  plateau).
* Azure honors overlapping multi-range requests but limits the Range
  header to 64 ranges — the only CDN with a direct range-count limit,
  which pins ``max n = 64`` in every Azure-BCDN row of Table V.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.cdn.limits import HeaderLimits
from repro.cdn.multirange import MultiRangeReplyBehavior
from repro.cdn.policy import ForwardDecision, ForwardPolicy
from repro.cdn.vendors.base import (
    ExchangeFn,
    FetchResult,
    VendorContext,
    VendorProfile,
)
from repro.cdn.window import ContentWindow
from repro.http.message import HttpRequest
from repro.http.ranges import RangeSpecifier, parse_content_range
from repro.http.status import StatusCode

EIGHT_MB = 8 * 1024 * 1024
#: Last byte position of Azure's expansion window, bytes=8388608-16777215.
WINDOW_LAST = 16 * 1024 * 1024 - 1
#: Extra payload that slips through before the connection cut takes
#: effect ("a little larger than 8MB").
DEFAULT_ABORT_SLOP = 64 * 1024


class AzureProfile(VendorProfile):
    name = "azure"
    display_name = "Azure"
    reply_behavior = MultiRangeReplyBehavior.HONOR
    reply_max_parts = 64
    server_header = "ECAcc (nyb/1D2E)"
    client_header_block_target = 719
    pad_header_name = "X-Azure-Ref"
    # Table IV: past 8 MB the attack asks for the window's first byte.
    sbr_cases_switch = (EIGHT_MB + 1, (f"bytes={EIGHT_MB}-{EIGHT_MB}",))
    second_window: Tuple[int, int] = (EIGHT_MB, WINDOW_LAST)
    #: The 8 MB cut plus the payload that slips past it before it takes
    #: effect (``abort_slop``).
    deletion_cut: int

    def __init__(self, abort_slop: int = DEFAULT_ABORT_SLOP) -> None:
        super().__init__()
        self._set(deletion_cut=EIGHT_MB + abort_slop)

    def default_limits(self) -> HeaderLimits:
        return HeaderLimits(max_ranges=64)

    def forward_decision(
        self,
        request: HttpRequest,
        spec: Optional[RangeSpecifier],
        ctx: VendorContext,
    ) -> ForwardDecision:
        if spec is None:
            return ForwardDecision.lazy(request.range_header)
        return ForwardDecision.delete()

    def fetch(
        self,
        request: HttpRequest,
        spec: Optional[RangeSpecifier],
        ctx: VendorContext,
        exchange: ExchangeFn,
    ) -> FetchResult:
        if spec is None:
            return super().fetch(request, spec, ctx, exchange)

        first_result = self._deletion_with_cut(request, exchange)
        if first_result.passthrough is not None or first_result.window is None:
            return first_result

        window = self.second_window_for(spec, first_result.window.complete_length)
        if window is not None:
            return self._expansion_fetch(request, window, exchange) or first_result
        return first_result

    # -- flow pieces ----------------------------------------------------------

    def _deletion_with_cut(self, request: HttpRequest, exchange: ExchangeFn) -> FetchResult:
        """Deletion forward; cut the connection a little past 8 MB."""
        upstream = self.build_upstream_request(request, ForwardDecision.delete())
        response = exchange(
            upstream,
            payload_cap=self.deletion_cut,
            note="forward:deletion (cut past 8MB)",
        )
        if response.status != StatusCode.OK:
            return FetchResult(
                passthrough=response,
                policy=ForwardPolicy.DELETION,
                upstream_status=response.status,
            )
        declared = response.declared_content_length()
        complete = declared if declared is not None else len(response.body)
        truncated = len(response.body) < complete
        return FetchResult(
            window=ContentWindow(body=response.body, offset=0, complete_length=complete),
            policy=ForwardPolicy.DELETION,
            upstream_status=200,
            cacheable_full=not truncated,
            source_headers=response.headers,
        )

    def _expansion_fetch(
        self, request: HttpRequest, window: Tuple[int, int], exchange: ExchangeFn
    ) -> Optional[FetchResult]:
        expansion_value = "bytes=%d-%d" % window
        upstream = self.build_upstream_request(request, ForwardDecision.expand(expansion_value))
        response = exchange(upstream, note=f"forward:expansion ({expansion_value})")
        if response.status != StatusCode.PARTIAL_CONTENT:
            return None
        content_range = response.headers.get("Content-Range")
        if content_range is None:
            return None
        resolved, complete = parse_content_range(content_range)
        if resolved is None or complete is None:
            return None
        return FetchResult(
            window=ContentWindow(
                body=response.body, offset=resolved.start, complete_length=complete
            ),
            policy=ForwardPolicy.EXPANSION,
            upstream_status=206,
            source_headers=response.headers,
        )

    def forward_headers(self) -> List[Tuple[str, str]]:
        return [("Via", "1.1 azureedge")]

    def response_headers(self) -> List[Tuple[str, str]]:
        return [
            ("Connection", "keep-alive"),
            ("X-Cache", "TCP_MISS"),
        ]
