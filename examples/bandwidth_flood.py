#!/usr/bin/env python3
"""Reproduce Fig 7: origin-uplink saturation under a sustained SBR flood.

Simulates m = 1..15 concurrent attack requests per second for 30 seconds
against a 1000 Mbps origin uplink (10 MB resource through Cloudflare)
and prints the per-m steady-state throughput plus a sparkline of the
origin's outgoing bandwidth over time.

Usage::

    python examples/bandwidth_flood.py
"""

from repro.core.practical import BandwidthAttackSimulation
from repro.reporting.render import render_sparkline

MB = 1 << 20


def main() -> None:
    simulation = BandwidthAttackSimulation(vendor="cloudflare", resource_size=10 * MB)
    origin_bytes, client_bytes = simulation.per_request_traffic()
    print(
        f"One SBR request moves {origin_bytes} bytes out of the origin and "
        f"{client_bytes} bytes to the attacker.\n"
    )
    print(" m | steady origin Mbps | client peak Kbps | origin Mbps over 40s")
    print("---+--------------------+------------------+" + "-" * 32)
    for result in simulation.sweep():
        marker = " <- saturated" if result.saturated else ""
        print(
            f"{result.m:2d} | {result.steady_origin_mbps:18.1f} | "
            f"{result.peak_client_kbps:16.1f} | "
            f"{render_sparkline(result.origin_mbps, width=30)}{marker}"
        )
    threshold = simulation.saturation_threshold()
    print(
        f"\nThe 1000 Mbps uplink pins at capacity from m = {threshold} "
        f"(paper: nearly saturated from m = 11, exhausted from m = 14)."
    )


if __name__ == "__main__":
    main()
