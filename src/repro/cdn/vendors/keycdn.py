"""KeyCDN profile.

Paper findings reproduced here (§V-A item 4, Table I):

* The **first** time KeyCDN sees a given range request it applies
  *Laziness* and does not cache the partial response.
* The **second identical** request triggers *Deletion* — KeyCDN decides
  the object is worth prefetching and pulls the whole representation.
* An SBR attacker therefore sends every request twice
  (``bytes=0-0 & bytes=0-0`` in Table IV); the client-side traffic
  doubles, which is why KeyCDN's amplification factor is roughly half
  the others' (724 at 1 MB) while its CDN-to-client traffic is the
  largest in Fig 6b.

The first-request memory belongs to the edge node: the node's
:class:`~repro.cdn.vendors.base.EdgeState` records each
``(host, target, range value)`` it has seen.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.cdn.policy import ForwardDecision
from repro.cdn.vendors.base import EncodingPolicy, SpecShape, VendorContext, VendorProfile, classify_spec
from repro.http.message import HttpRequest
from repro.http.ranges import RangeSpecifier


class KeycdnProfile(VendorProfile):
    name = "keycdn"
    display_name = "KeyCDN"
    server_header = "keycdn-engine"
    client_header_block_target = 722
    pad_header_name = "X-Edge-Location"
    # arXiv 2409.00712 Table 3: KeyCDN rewrites Accept-Encoding to
    # gzip and decompresses at the edge.
    encoding_policy = EncodingPolicy.REWRITE
    edge_accept_encoding = ("gzip",)
    edge_decompresses = True
    # Table IV: the same request twice, at one URL.
    sbr_cases = ("bytes=0-0", "bytes=0-0")

    def forward_decision(
        self,
        request: HttpRequest,
        spec: Optional[RangeSpecifier],
        ctx: VendorContext,
    ) -> ForwardDecision:
        if spec is None:
            return ForwardDecision.lazy(request.range_header)
        shape = classify_spec(spec)
        if shape is SpecShape.MULTI:
            # KeyCDN is absent from Table II: multi-range requests are not
            # forwarded verbatim.
            return ForwardDecision.delete()
        if shape is not SpecShape.SINGLE_CLOSED:
            # Table I lists only bytes=first-last for KeyCDN; suffix and
            # open-ended ranges stay lazy on every sighting.
            return ForwardDecision.lazy(request.range_header)
        key = (request.host or "", request.target, request.range_header or "")
        seen = ctx.state.seen
        if key in seen:
            return ForwardDecision.delete()
        seen.add(key)
        return ForwardDecision.lazy(request.range_header)

    def forward_headers(self) -> List[Tuple[str, str]]:
        return [("X-Forwarded-For", "198.51.100.7")]

    def response_headers(self) -> List[Tuple[str, str]]:
        return [
            ("Connection", "keep-alive"),
            ("X-Cache", "MISS"),
            ("X-Shield", "active"),
        ]
