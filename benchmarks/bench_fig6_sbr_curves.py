"""Fig 6 — the SBR sweep: amplification factor (6a), CDN-to-client
traffic (6b), and origin-to-CDN traffic (6c) over resource sizes of
1-25 MB for all 13 vendors.

Asserts the curves' defining shapes: near-linear factor growth for
Deletion vendors, the Azure 16 MB and CloudFront 10 MB plateaus, flat
sub-1500-byte client traffic, and KeyCDN's doubled client traffic.
"""

import pytest

from repro.cdn.vendors import all_vendor_names
from repro.core.sbr import sbr_grid
from repro.reporting.figures import default_fig6_sizes, fig6_series_from_results
from repro.reporting.render import render_table

from benchmarks.conftest import run_grid, save_artifact

MB = 1 << 20


def _regenerate():
    vendors, sizes = all_vendor_names(), tuple(default_fig6_sizes())
    results = run_grid(sbr_grid(vendors, sizes, name="fig6-sbr"))
    return fig6_series_from_results(results, vendors, sizes)


def test_fig6_sbr_curves(benchmark, output_dir):
    series = benchmark.pedantic(_regenerate, rounds=1, iterations=1)
    by_vendor = {curve.vendor: curve for curve in series}
    assert len(by_vendor) == 13

    # Fig 6a: near-proportional growth for plain-Deletion vendors.
    for vendor in ("akamai", "gcore", "cloudflare", "tencent"):
        curve = by_vendor[vendor]
        ratio = curve.factors[-1] / curve.factors[0]
        assert ratio == pytest.approx(25, rel=0.10), (
            f"{vendor}: 25 MB factor should be ~25x the 1 MB factor, got {ratio:.1f}"
        )

    # Fig 6a: Azure plateaus once the resource exceeds 16 MB.
    azure = by_vendor["azure"]
    plateau = azure.factors[16:]  # 17 MB and beyond
    assert max(plateau) - min(plateau) < 0.02 * max(plateau)

    # Fig 6a: CloudFront plateaus once the resource exceeds 10 MB.
    cloudfront = by_vendor["cloudfront"]
    plateau = cloudfront.factors[10:]
    assert max(plateau) - min(plateau) < 0.02 * max(plateau)

    # Fig 6b: client-side traffic is flat and below 1500 bytes.
    for curve in series:
        assert max(curve.client_traffic) <= 1500 * (
            2 if curve.vendor == "keycdn" else 1
        ), curve.vendor

    # Fig 6b: KeyCDN's two-request pattern gives the largest client traffic.
    keycdn_client = max(by_vendor["keycdn"].client_traffic)
    assert keycdn_client > max(
        max(c.client_traffic) for v, c in by_vendor.items() if v != "keycdn"
    )

    # Fig 6c: origin traffic tracks the resource size for Deletion vendors.
    assert by_vendor["akamai"].origin_traffic[24] == pytest.approx(25 * MB, rel=0.01)

    header = ["size"] + [curve.vendor for curve in series]
    rows = []
    for index, size in enumerate(series[0].sizes):
        rows.append(
            [f"{size // MB}MB"] + [f"{curve.factors[index]:.0f}" for curve in series]
        )
    save_artifact(output_dir, "fig6a_amplification_factors.txt", render_table(header, rows))

    client_rows = [
        [f"{size // MB}MB"] + [str(curve.client_traffic[index]) for curve in series]
        for index, size in enumerate(series[0].sizes)
    ]
    save_artifact(output_dir, "fig6b_client_traffic.txt", render_table(header, client_rows))

    origin_rows = [
        [f"{size // MB}MB"] + [str(curve.origin_traffic[index]) for curve in series]
        for index, size in enumerate(series[0].sizes)
    ]
    save_artifact(output_dir, "fig6c_origin_traffic.txt", render_table(header, origin_rows))
