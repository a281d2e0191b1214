"""CloudFront profile.

Paper findings reproduced here (§V-A item 3):

* CloudFront applies *Expansion*, widening ranges to whole-megabyte
  boundaries: ``first' = (first >> 20) << 20`` and
  ``last' = ((last >> 20) + 1 << 20) - 1``.
* A multi-range request is collapsed to the single MB-aligned range
  covering all its specs — but only if that window is at most
  10 485 760 bytes; that cap is why CloudFront's SBR amplification
  plateaus once the target resource exceeds 10 MB (Fig 6a).
* The paper's exploited case ``bytes=0-0,9437184-9437184`` expands to
  ``bytes=0-10485759`` — a 10 MB back-to-origin fetch for a
  two-byte request.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.cdn.policy import ForwardDecision, mb_aligned_expansion
from repro.cdn.vendors.base import EncodingPolicy, SpecShape, VendorContext, VendorProfile, classify_spec
from repro.http.message import HttpRequest
from repro.http.ranges import ByteRangeSpec, RangeSpecifier

#: CloudFront's cap on the expanded window of a multi-range request.
MULTI_RANGE_WINDOW_CAP = 10 * 1024 * 1024


class CloudFrontProfile(VendorProfile):
    name = "cloudfront"
    display_name = "CloudFront"
    server_header = "CloudFront"
    client_header_block_target = 772
    pad_header_name = "X-Amz-Cf-Id"
    # arXiv 2409.00712 Table 3: CloudFront rewrites Accept-Encoding to
    # gzip and decompresses at the edge for identity-only clients.
    encoding_policy = EncodingPolicy.REWRITE
    edge_accept_encoding = ("gzip",)
    edge_decompresses = True
    # Table IV: two bytes whose MB-aligned cover is the whole 10 MB window.
    sbr_cases = ("bytes=0-0,9437184-9437184",)

    def forward_decision(
        self,
        request: HttpRequest,
        spec: Optional[RangeSpecifier],
        ctx: VendorContext,
    ) -> ForwardDecision:
        if spec is None:
            return ForwardDecision.lazy(request.range_header)
        shape = classify_spec(spec)
        if shape is SpecShape.SINGLE_CLOSED:
            only = spec.first
            assert isinstance(only, ByteRangeSpec) and only.last is not None
            expanded = mb_aligned_expansion(only.first, only.last, cap=None)
            assert expanded is not None
            return ForwardDecision.expand(f"bytes={expanded[0]}-{expanded[1]}")
        if shape is SpecShape.MULTI:
            return self._multi_decision(request, spec)
        # Open-ended and suffix ranges have no last-byte-pos to align;
        # CloudFront forwards them unchanged.
        return ForwardDecision.lazy(request.range_header)

    def _multi_decision(self, request: HttpRequest, spec: RangeSpecifier) -> ForwardDecision:
        closed = [s for s, _ in spec.runs if isinstance(s, ByteRangeSpec) and s.last is not None]
        if len(closed) != len(spec.runs):
            # Mixed multi-range with open/suffix specs: no alignment rule
            # applies; CloudFront fetches the whole representation rather
            # than relaying the header (it is absent from Table II, so it
            # must not forward overlapping multi-ranges verbatim).
            return ForwardDecision.delete()
        first = min(s.first for s in closed)
        last = max(s.last for s in closed)  # type: ignore[type-var]
        expanded = mb_aligned_expansion(first, last, cap=MULTI_RANGE_WINDOW_CAP)
        if expanded is not None:
            return ForwardDecision.expand(f"bytes={expanded[0]}-{expanded[1]}")
        # The covering window is too large: expand the first spec only.
        leading = closed[0]
        single = mb_aligned_expansion(leading.first, leading.last, cap=None)
        assert single is not None
        return ForwardDecision.expand(f"bytes={single[0]}-{single[1]}")

    def forward_headers(self) -> List[Tuple[str, str]]:
        return [
            ("Via", "1.1 2af9dd0e95bd8bbbe43d52b7d4b9b2ea.cloudfront.net (CloudFront)"),
            ("X-Amz-Cf-Id", "8LqvbH9S0zhbnMsJztGBQgpVxcgGq7TUoHvcl2XbVFQeCGtLPWrDSg=="),
        ]

    def response_headers(self) -> List[Tuple[str, str]]:
        return [
            ("Connection", "keep-alive"),
            ("X-Cache", "Miss from cloudfront"),
            ("X-Amz-Cf-Pop", "IAD89-C1"),
        ]
