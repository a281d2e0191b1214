"""CDNsun profile.

Paper findings reproduced here:

* Table I — *Deletion* for ``bytes=0-last`` (ranges anchored at byte 0).
* Table II — forwards multi-range requests unchanged when the leading
  spec starts at byte 1 or later (``start_1 >= 1``); the paper's
  exploited OBR case through CDNsun is ``bytes=1-,0-,...,0-``.
* §V-C — single header line limited to 16 KB, capping the OBR ``n`` at
  5456 for the ``bytes=1-,0-,...,0-`` shape.

As with CDN77, one rule yields both rows: CDNsun deletes the Range
header when the first spec is anchored at byte 0, and is lazy otherwise.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.cdn.limits import HeaderLimits
from repro.cdn.policy import ForwardDecision
from repro.cdn.vendors.base import VendorContext, VendorProfile
from repro.http.message import HttpRequest
from repro.http.ranges import ByteRangeSpec, RangeSpecifier


class CdnsunProfile(VendorProfile):
    name = "cdnsun"
    display_name = "CDNsun"
    server_header = "CDNsun"
    client_header_block_target = 664
    pad_header_name = "X-Edge-Location"
    # Paper §IV-C: CDNsun keeps the upstream connection alive when the
    # client aborts.
    maintains_backend_on_client_abort = True
    # Table V: lead with a spec that is not anchored at byte 0.
    obr_leading_spec = "1-"

    def default_limits(self) -> HeaderLimits:
        return HeaderLimits(max_single_header_line_bytes=16 * 1024)

    def forward_decision(
        self,
        request: HttpRequest,
        spec: Optional[RangeSpecifier],
        ctx: VendorContext,
    ) -> ForwardDecision:
        if spec is None:
            return ForwardDecision.lazy(request.range_header)
        leading = spec.first
        if isinstance(leading, ByteRangeSpec) and leading.first == 0:
            return ForwardDecision.delete()
        return ForwardDecision.lazy(request.range_header)

    def forward_headers(self) -> List[Tuple[str, str]]:
        return [("X-Forwarded-For", "198.51.100.7")]

    def response_headers(self) -> List[Tuple[str, str]]:
        return [
            ("Connection", "keep-alive"),
            ("X-Cache", "MISS"),
        ]
