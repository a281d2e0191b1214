"""Huawei Cloud profile.

Paper findings reproduced here (Table I):

* For resources **under 10 MB**, *Deletion* applies to ``bytes=-suffix``
  requests (exploited case at small sizes: ``bytes=-1``).
* For resources of **10 MB or more**, *Deletion* applies to
  ``bytes=first-last`` requests (exploited case: ``bytes=0-0``).
* Both are conditional (*) on the customer's *Range* origin option being
  **enable** — note the polarity is the opposite of Alibaba/Tencent's
  option (paper §V-A item 1).

The size-dependent switch requires the edge to know the resource size
before forwarding; real CDNs know it from cached metadata, and the
simulator supplies it through ``VendorContext.resource_size_hint``
(populated by the deployment).  With no hint the resource is assumed
small, matching a cold cache.
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

#: The behavior switch point from Table I.
SIZE_THRESHOLD = 10 * 1024 * 1024


class HuaweiProfile(VendorProfile):
    name = "huawei"
    display_name = "Huawei Cloud"
    server_header = "CDN"
    client_header_block_target = 715
    pad_header_name = "X-HCS-Request-Id"
    # arXiv 2409.00712 Table 3: Huawei Cloud CDN rewrites Accept-
    # Encoding to gzip and decompresses at the edge.
    encoding_policy = EncodingPolicy.REWRITE
    edge_accept_encoding = ("gzip",)
    edge_decompresses = True
    # Table IV: the deleted shape switches at the 10 MB threshold.
    sbr_cases = ("bytes=-1",)
    sbr_cases_switch = (SIZE_THRESHOLD, ("bytes=0-0",))

    @classmethod
    def default_config(cls) -> VendorConfig:
        # Huawei's Range option defaults to "enable" — the vulnerable
        # setting for this vendor.
        return VendorConfig(origin_range_option=True)

    def forward_decision(
        self,
        request: HttpRequest,
        spec: Optional[RangeSpecifier],
        ctx: VendorContext,
    ) -> ForwardDecision:
        if spec is None:
            return ForwardDecision.lazy(request.range_header)
        if ctx.config.origin_range_option is False:
            # Option set to "disable": not vulnerable, forwards unchanged.
            return ForwardDecision.lazy(request.range_header)
        shape = classify_spec(spec)
        size = ctx.resource_size_hint
        large = size is not None and size >= SIZE_THRESHOLD
        if shape is SpecShape.SINGLE_SUFFIX and not large:
            return ForwardDecision.delete()
        if shape is SpecShape.SINGLE_CLOSED and large:
            return ForwardDecision.delete()
        if shape is SpecShape.MULTI:
            return ForwardDecision.delete()
        return ForwardDecision.lazy(request.range_header)

    def forward_headers(self) -> List[Tuple[str, str]]:
        return [("X-Forwarded-For", "198.51.100.7")]

    def response_headers(self) -> List[Tuple[str, str]]:
        return [
            ("Connection", "keep-alive"),
            ("X-Cache-Lookup", "Cache Miss"),
            ("Age", "0"),
        ]
