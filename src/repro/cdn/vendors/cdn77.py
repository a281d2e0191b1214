"""CDN77 profile.

Paper findings reproduced here:

* Table I — *Deletion* for ``bytes=first-last`` when ``first < 1024``.
* Table II — forwards multi-range requests unchanged when the leading
  spec is not in the deletion zone; the paper's exploited OBR case
  through CDN77 leads with ``-1024`` (a suffix spec) for exactly this
  reason.
* §V-C — any single request header line is limited to 16 KB, which caps
  the OBR ``n`` at 5455 for the ``bytes=-1024,0-,...,0-`` shape.

Both the single-range and multi-range behaviors fall out of one rule:
CDN77 deletes the Range header when its *first* spec starts below byte
1024, and is lazy otherwise.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.cdn.limits import HeaderLimits
from repro.cdn.policy import ForwardDecision
from repro.cdn.vendors.base import EncodingPolicy, VendorContext, VendorProfile
from repro.http.message import HttpRequest
from repro.http.ranges import ByteRangeSpec, RangeSpecifier

#: Requests whose first range starts below this offset trigger Deletion.
DELETION_ZONE = 1024


class Cdn77Profile(VendorProfile):
    name = "cdn77"
    display_name = "CDN77"
    server_header = "CDN77-Turbo"
    client_header_block_target = 650
    pad_header_name = "X-77-NZT"
    # arXiv 2409.00712 Table 3: CDN77 rewrites Accept-Encoding to
    # br/gzip and converts (decompresses) at the edge.
    encoding_policy = EncodingPolicy.REWRITE
    edge_accept_encoding = ("br", "gzip")
    edge_decompresses = True
    # Paper §IV-C: CDN77 keeps the upstream connection alive when the
    # client aborts, which also lets OBR attackers drop early for free.
    maintains_backend_on_client_abort = True
    # Table V: lead with a suffix spec, outside the deletion zone.
    obr_leading_spec = "-1024"

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
        if isinstance(leading, ByteRangeSpec) and leading.first < DELETION_ZONE:
            return ForwardDecision.delete()
        return ForwardDecision.lazy(request.range_header)

    def forward_headers(self) -> List[Tuple[str, str]]:
        return [("X-Forwarded-For", "198.51.100.7")]

    def response_headers(self) -> List[Tuple[str, str]]:
        return [
            ("Connection", "keep-alive"),
            ("X-77-Cache", "MISS"),
            ("X-77-POP", "frankfurtDE"),
        ]
