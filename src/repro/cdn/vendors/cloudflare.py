"""Cloudflare profile.

Paper findings reproduced here:

* Table I — *Deletion* for ``bytes=first-last`` and ``bytes=-suffix``,
  conditional (*) on the target path being configured **cacheable**
  (the default caching behavior for static assets).
* Table II — forwards multi-range requests unchanged, conditional (*) on
  the target path being configured **Bypass**; an OBR attacker is a
  malicious customer and sets the rule themselves.
* §V-C — the measured constraint on Range-bearing requests,
  ``RL + 2·HHL + RHL <= 32411`` bytes, which caps the OBR ``n`` around
  10 750 when Cloudflare fronts Akamai or StackPath.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.cdn.limits import CloudflareRule, HeaderLimits
from repro.cdn.policy import ForwardDecision
from repro.cdn.vendors.base import EncodingPolicy, VendorContext, VendorProfile
from repro.http.message import HttpRequest
from repro.http.ranges import RangeSpecifier


class CloudflareProfile(VendorProfile):
    name = "cloudflare"
    display_name = "Cloudflare"
    server_header = "cloudflare"
    client_header_block_target = 817
    pad_header_name = "CF-RAY"
    # Paper Table 3 (arXiv 2409.00712): Cloudflare rewrites Accept-
    # Encoding to its own br/gzip preference and decompresses at the edge
    # when the client cannot accept the stored coding.
    encoding_policy = EncodingPolicy.REWRITE
    edge_accept_encoding = ("br", "gzip")
    edge_decompresses = True

    def default_limits(self) -> HeaderLimits:
        return HeaderLimits(custom=CloudflareRule())

    def forward_decision(
        self,
        request: HttpRequest,
        spec: Optional[RangeSpecifier],
        ctx: VendorContext,
    ) -> ForwardDecision:
        if spec is None:
            return ForwardDecision.lazy(request.range_header)
        if ctx.config.bypass_cache:
            # The Bypass page rule disables caching — and with it the
            # cache-filling Deletion policy (the OBR front-end setting).
            return ForwardDecision.lazy(request.range_header)
        if ctx.config.cacheable:
            return ForwardDecision.delete()
        return ForwardDecision.lazy(request.range_header)

    def forward_headers(self) -> List[Tuple[str, str]]:
        return [
            ("CF-Connecting-IP", "198.51.100.7"),
            ("X-Forwarded-Proto", "http"),
        ]

    def response_headers(self) -> List[Tuple[str, str]]:
        return [
            ("Connection", "keep-alive"),
            ("CF-Cache-Status", "MISS"),
            ("Expect-CT", 'max-age=604800, report-uri="https://report-uri.cloudflare.com/cdn-cgi/beacon/expect-ct"'),
            ("Vary", "Accept-Encoding"),
        ]
