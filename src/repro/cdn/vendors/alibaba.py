"""Alibaba Cloud profile.

Paper findings reproduced here:

* Table I — *Deletion* for ``bytes=-suffix``, conditional (*) on the
  customer's *Range* origin option being **disable** (the default the
  paper measured with; setting it to *enable* makes Alibaba lazy and not
  vulnerable).
* Table IV — exploited case ``bytes=-1``, 1 MB factor ≈ 1056 (heavier
  response headers than most, hence the shallow slope).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.cdn.policy import ForwardDecision
from repro.cdn.vendors.base import (
    EncodingPolicy,
    SpecShape,
    VendorConfig,
    VendorContext,
    VendorProfile,
    classify_spec,
)
from repro.http.message import HttpRequest
from repro.http.ranges import RangeSpecifier


class AlibabaProfile(VendorProfile):
    name = "alibaba"
    display_name = "Alibaba Cloud"
    server_header = "Tengine"
    client_header_block_target = 992
    pad_header_name = "EagleId"
    # arXiv 2409.00712 Table 3: Alibaba Cloud CDN rewrites Accept-
    # Encoding (gzip preferred) and decompresses at the edge.
    encoding_policy = EncodingPolicy.REWRITE
    edge_accept_encoding = ("gzip", "br")
    edge_decompresses = True
    sbr_cases = ("bytes=-1",)

    @classmethod
    def default_config(cls) -> VendorConfig:
        # The Range origin option defaults to "disable": back-to-origin
        # requests carry no Range header — the vulnerable setting.
        return VendorConfig(origin_range_option=False)

    def forward_decision(
        self,
        request: HttpRequest,
        spec: Optional[RangeSpecifier],
        ctx: VendorContext,
    ) -> ForwardDecision:
        if spec is None:
            return ForwardDecision.lazy(request.range_header)
        range_option_disabled = ctx.config.origin_range_option is not True
        shape = classify_spec(spec)
        if shape is SpecShape.SINGLE_SUFFIX and range_option_disabled:
            return ForwardDecision.delete()
        if shape is SpecShape.MULTI:
            # Multi-range requests are not forwarded verbatim (Alibaba is
            # absent from Table II): fetch the whole representation.
            return ForwardDecision.delete()
        return ForwardDecision.lazy(request.range_header)

    def forward_headers(self) -> List[Tuple[str, str]]:
        return [
            ("Via", "1.1 cache.l2et2-1[0,0]"),
            ("Ali-Swift-Log-Host", "example.com.w.alikunlun.com"),
        ]

    def response_headers(self) -> List[Tuple[str, str]]:
        return [
            ("Connection", "keep-alive"),
            ("Timing-Allow-Origin", "*"),
            ("Via", "cache13.l2et2-1[0,206-0,M], cache3.cn1339[0,200-0,M]"),
            ("X-Cache", "MISS TCP_MISS dirn:-2:-2"),
            ("X-Swift-CacheTime", "86400"),
        ]
