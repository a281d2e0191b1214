"""Golden regression tests pinning the paper-shape invariants.

The benchmarks check measured values against the paper's tables with
tolerance bands; these tests pin the *shapes* that make the curves what
they are, so a refactor of the substrate (vendor profiles, window
logic, traffic accounting) cannot silently bend them:

* SBR factor grows linearly with resource size (Deletion vendors);
* Azure's factor plateaus once the origin pull caps at 16 MB;
* CloudFront's factor plateaus at its 10 MB expansion cap;
* KeyCDN's send-it-twice pattern halves its factor;
* OBR factors exceed Azure-backed OBR's ~50 by two orders of magnitude.
"""

from __future__ import annotations

import pytest

from repro.core.obr import ObrAttack
from repro.core.sbr import SbrAttack
from repro.families.sbr import measure_sbr

MB = 1 << 20


def _factor(vendor: str, size: int) -> float:
    # Memoized: shapes below probe overlapping (vendor, size) points.
    return measure_sbr(vendor, size).amplification


def test_sbr_factor_grows_linearly_with_size():
    """Fig 6a: Deletion vendors' factor is ~proportional to size."""
    for vendor in ("akamai", "cloudflare", "tencent"):
        base = _factor(vendor, 1 * MB)
        assert _factor(vendor, 2 * MB) / base == pytest.approx(2.0, rel=0.03), vendor
        assert _factor(vendor, 4 * MB) / base == pytest.approx(4.0, rel=0.03), vendor
        assert _factor(vendor, 8 * MB) / base == pytest.approx(8.0, rel=0.03), vendor


def test_azure_plateaus_at_16_mb():
    """Azure pulls at most 2 x 8 MB from the origin, so the factor is
    flat past 16 MB while still climbing before it."""
    below = _factor("azure", 12 * MB)
    at_cap = _factor("azure", 16 * MB)
    past_cap = [_factor("azure", s * MB) for s in (17, 20, 25)]
    assert at_cap > below  # still growing up to the cap
    for factor in past_cap:
        assert factor == pytest.approx(past_cap[0], rel=0.02)
    # The plateau sits at the 16 MB pull level, not above it.
    assert max(past_cap) <= at_cap * 1.02


def test_cloudfront_plateaus_at_10_mb():
    """CloudFront expands to MB-aligned windows capped at 10 MB.

    (The pre-cap anchor is 2 MB: CloudFront's fixed exploited case
    includes a 9 MB point that is unsatisfiable below 9 MB resources,
    which wobbles the curve around 8–9 MB without changing the cap.)
    """
    below = _factor("cloudfront", 2 * MB)
    at_cap = _factor("cloudfront", 10 * MB)
    past_cap = [_factor("cloudfront", s * MB) for s in (11, 14, 25)]
    assert at_cap > below
    for factor in past_cap:
        assert factor == pytest.approx(past_cap[0], rel=0.02)
    assert max(past_cap) <= at_cap * 1.02


def test_keycdn_factor_halves_on_the_second_request():
    """KeyCDN's Deletion fires on the *second* sighting: one request
    alone barely amplifies, and paying for two requests halves the
    factor relative to a hypothetical single-request exploit."""
    double = SbrAttack("keycdn", resource_size=10 * MB).run()
    assert double.statuses == (206, 206)

    # A single first-sighting request is forwarded lazily: the origin
    # returns just the requested byte, so there is no amplification.
    single = SbrAttack("keycdn", resource_size=10 * MB).run(
        range_cases=["bytes=0-0"]
    )
    assert single.amplification < 5.0

    # The exploited factor is half of what one request's share implies:
    # same origin pull, twice the client-side traffic.
    single_response = double.client_traffic / 2
    hypothetical_single_request_factor = double.origin_traffic / single_response
    assert double.amplification == pytest.approx(
        hypothetical_single_request_factor / 2, rel=0.01
    )

    # And it lands well below comparable single-request Deletion vendors.
    assert double.amplification < 0.65 * _factor("tencent", 10 * MB)


def test_obr_factors_dwarf_azure_backed_obr():
    """Table V: Azure's 64-part cap holds its factor near ~50; cascades
    through an uncapped BCDN amplify two orders of magnitude more."""
    azure_backed = ObrAttack("cloudflare", "azure").run()
    akamai_backed = ObrAttack("cloudflare", "akamai").run()

    assert azure_backed.overlap_count == 64  # the documented part limit
    assert azure_backed.amplification == pytest.approx(50, rel=0.35)

    assert akamai_backed.amplification > 1000
    assert akamai_backed.amplification >= 100 * azure_backed.amplification
