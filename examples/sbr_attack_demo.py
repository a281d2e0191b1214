#!/usr/bin/env python3
"""SBR attack deep-dive: per-vendor factors, the size sweep, and why
cache busting is load-bearing.

Usage::

    python examples/sbr_attack_demo.py [vendor]

With no argument, sweeps all 13 vendors at 1/10/25 MB (Table IV).  With
a vendor name (e.g. ``akamai``), additionally plots the vendor's Fig 6a
curve and demonstrates the cache-busting requirement and the safe
configuration, where the vendor has one.
"""

import sys

from repro.cdn.vendors import all_vendor_names, profile_class
from repro.cdn.vendors.base import VendorConfig
from repro.core.deployment import Deployment
from repro.core.sbr import SbrAttack
from repro.netsim.tap import CDN_ORIGIN
from repro.origin.server import OriginServer
from repro.reporting.render import render_sparkline, render_table

MB = 1 << 20


def sweep_all_vendors() -> None:
    rows = []
    for vendor in all_vendor_names():
        factors = [
            SbrAttack(vendor, resource_size=size).run().amplification
            for size in (1 * MB, 10 * MB, 25 * MB)
        ]
        cases = " & ".join(profile_class(vendor).sbr_cases_at(25 * MB))
        rows.append([vendor, cases, *(f"{f:.0f}" for f in factors)])
    print(render_table(["CDN", "exploited case (25MB)", "1MB", "10MB", "25MB"], rows))


def vendor_curve(vendor: str) -> None:
    sizes = [m * MB for m in range(1, 26)]
    factors = [
        SbrAttack(vendor, resource_size=size).run().amplification for size in sizes
    ]
    print(f"\nFig 6a curve for {vendor} (1..25 MB):")
    print("  " + render_sparkline(factors, width=50))
    print(f"  1 MB: {factors[0]:.0f}x   25 MB: {factors[-1]:.0f}x")


def cache_busting_matters(vendor: str) -> None:
    """Without busting, the second request is a cache hit: no origin
    traffic, no amplification."""
    origin = OriginServer()
    origin.add_synthetic_resource("/target.bin", 10 * MB)
    deployment = Deployment.single(vendor, origin)
    client = deployment.client()

    client.get("/target.bin", range_value="bytes=0-0")
    after_first = deployment.response_traffic(CDN_ORIGIN)
    for _ in range(9):
        client.get("/target.bin", range_value="bytes=0-0")
    after_ten = deployment.response_traffic(CDN_ORIGIN)

    print(f"\nCache busting ({vendor}):")
    print(f"  10 identical requests -> origin traffic {after_ten} bytes "
          f"(same as 1 request: {after_first == after_ten})")

    busted = SbrAttack(vendor, resource_size=10 * MB).run(rounds=10)
    print(f"  10 cache-busted requests -> origin traffic {busted.origin_traffic} bytes")


def safe_configuration(vendor: str) -> None:
    safe = {
        "alibaba": VendorConfig(origin_range_option=True),
        "tencent": VendorConfig(origin_range_option=True),
        "huawei": VendorConfig(origin_range_option=False),
        "cloudflare": VendorConfig(cacheable=False),
    }.get(vendor)
    if safe is None:
        return
    vulnerable = SbrAttack(vendor, resource_size=10 * MB).run().amplification
    mitigated = SbrAttack(vendor, resource_size=10 * MB, config=safe).run().amplification
    print(f"\nConfiguration gate ({vendor}):")
    print(f"  default (vulnerable) config: {vulnerable:.0f}x")
    print(f"  safe config:                 {mitigated:.1f}x")


def main() -> None:
    sweep_all_vendors()
    if len(sys.argv) > 1:
        vendor = sys.argv[1]
        if vendor not in all_vendor_names():
            raise SystemExit(f"unknown vendor {vendor!r}; pick from {all_vendor_names()}")
        vendor_curve(vendor)
        cache_busting_matters(vendor)
        safe_configuration(vendor)


if __name__ == "__main__":
    main()
