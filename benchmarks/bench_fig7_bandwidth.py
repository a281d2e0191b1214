"""Fig 7 — bandwidth consumption under a sustained SBR flood.

Sweeps m = 1..15 concurrent attack requests per second for 30 seconds
against a 1000 Mbps origin uplink (10 MB resource through Cloudflare,
as in the paper's §V-D) and asserts the figure's shape: client incoming
under 500 Kbps throughout (7a), origin outgoing proportional to m until
the uplink pins at capacity in the paper's m = 11-14 band (7b).
"""

import pytest

from repro.core.practical import flood_grid
from repro.reporting.paper_values import (
    PAPER_FIG7_FULL_SATURATION_M,
    PAPER_FIG7_NEAR_SATURATION_M,
)
from repro.reporting.render import render_sparkline, render_table

from benchmarks.conftest import benchmark_runner, save_artifact

MB = 1 << 20


def _regenerate():
    grid = flood_grid(
        ms=tuple(range(1, 16)), vendor="cloudflare", resource_size=10 * MB
    )
    return benchmark_runner().run(grid).values()


def test_fig7_bandwidth(benchmark, output_dir):
    results = benchmark.pedantic(_regenerate, rounds=1, iterations=1)

    # Fig 7a: client incoming bandwidth below 500 Kbps for every m.
    assert all(result.peak_client_kbps < 500.0 for result in results)

    # Fig 7b: proportional growth below saturation...
    per_stream = results[0].steady_origin_mbps
    for result in results[:10]:
        expected = min(result.m * per_stream, 1000.0)
        assert result.steady_origin_mbps == pytest.approx(expected, rel=0.05)

    # ...and the crossover lands in the paper's m = 11-14 band.
    threshold = next(result.m for result in results if result.saturated)
    assert (
        PAPER_FIG7_NEAR_SATURATION_M <= threshold <= PAPER_FIG7_FULL_SATURATION_M
    ), f"saturation at m={threshold}, paper band is 11-14"

    # m = 15 keeps the uplink pinned.
    assert results[-1].steady_origin_mbps == pytest.approx(1000.0, rel=0.03)

    rendered = render_table(
        ["m", "origin steady (Mbps)", "client peak (Kbps)", "saturated", "origin Mbps over time"],
        [
            [
                result.m,
                f"{result.steady_origin_mbps:.1f}",
                f"{result.peak_client_kbps:.1f}",
                "yes" if result.saturated else "no",
                render_sparkline(result.origin_mbps, width=30),
            ]
            for result in results
        ],
    )
    save_artifact(output_dir, "fig7_bandwidth.txt", rendered)
