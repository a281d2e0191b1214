"""Integration tests for the SBR attack (paper §IV-B, §V-B, Table IV,
Fig 6).

The amplification factors are checked against Table IV with explicit
tolerances: the simulator reproduces the paper's response-header weights
and forwarding flows, so factors land within a few percent; the plateau
vendors (Azure, CloudFront) get a wider band because their cut-off
arithmetic differs slightly from the authors' testbed timing.
"""

import pytest

from repro.core.sbr import SbrAttack, sweep_resource_sizes
from repro.errors import UnknownVendorError
from repro.cdn.vendors import all_vendor_names, profile_class
from repro.cdn.vendors.base import VendorConfig
from repro.reporting.paper_values import PAPER_TABLE4_FACTORS

MB = 1 << 20

#: Relative tolerance per vendor against Table IV factors.
_TOLERANCE = {"azure": 0.15, "cloudfront": 0.20, "keycdn": 0.10}
_DEFAULT_TOLERANCE = 0.08


def cases_at(vendor, resource_size):
    """Table IV column 2, as the vendor's profile class declares it."""
    return profile_class(vendor).sbr_cases_at(resource_size)


class TestExploitedCases:
    def test_every_vendor_has_a_case(self):
        for vendor in all_vendor_names():
            for size in (1 * MB, 10 * MB, 25 * MB):
                cases = cases_at(vendor, size)
                assert cases
                assert all(value.startswith("bytes=") for value in cases)

    def test_keycdn_sends_twice(self):
        assert cases_at("keycdn", 1 * MB) == ("bytes=0-0", "bytes=0-0")

    def test_azure_switches_at_8mb(self):
        assert cases_at("azure", 8 * MB) == ("bytes=0-0",)
        assert cases_at("azure", 8 * MB + 1) == ("bytes=8388608-8388608",)
        assert cases_at("azure", 9 * MB) == ("bytes=8388608-8388608",)

    def test_huawei_switches_at_10mb(self):
        assert cases_at("huawei", 10 * MB - 1) == ("bytes=-1",)
        assert cases_at("huawei", 10 * MB) == ("bytes=0-0",)

    def test_unknown_vendor_rejected(self):
        with pytest.raises(UnknownVendorError):
            cases_at("notacdn", 1 * MB)
        with pytest.raises(UnknownVendorError):
            SbrAttack("notacdn", resource_size=1 * MB).run()


class TestSingleRun:
    def test_result_fields_consistent(self):
        result = SbrAttack("gcore", resource_size=1 * MB).run()
        assert result.vendor == "gcore"
        assert result.resource_size == 1 * MB
        assert result.origin_traffic > 1 * MB
        assert result.client_traffic < 2000
        assert result.amplification == pytest.approx(
            result.origin_traffic / result.client_traffic
        )
        assert all(status == 206 for status in result.statuses)

    def test_runs_are_independent(self):
        first = SbrAttack("gcore", resource_size=1 * MB).run()
        second = SbrAttack("gcore", resource_size=1 * MB).run()
        assert first.origin_traffic == second.origin_traffic
        assert first.amplification == second.amplification

    def test_multiple_rounds_scale_linearly(self):
        one = SbrAttack("gcore", resource_size=1 * MB).run(rounds=1)
        five = SbrAttack("gcore", resource_size=1 * MB).run(rounds=5)
        assert five.origin_traffic == 5 * one.origin_traffic
        assert five.amplification == pytest.approx(one.amplification, rel=0.01)

    def test_invalid_rounds(self):
        with pytest.raises(ValueError):
            SbrAttack("gcore").run(rounds=0)


class TestPaperFactors:
    """Table IV reproduction."""

    @pytest.mark.parametrize("vendor", all_vendor_names())
    @pytest.mark.parametrize("size", [1 * MB, 10 * MB, 25 * MB])
    def test_factor_matches_table4(self, vendor, size):
        paper = PAPER_TABLE4_FACTORS[vendor][size]
        measured = SbrAttack(vendor, resource_size=size).run().amplification
        tolerance = _TOLERANCE.get(vendor, _DEFAULT_TOLERANCE)
        assert measured == pytest.approx(paper, rel=tolerance), (
            f"{vendor} at {size // MB} MB: measured {measured:.0f}, "
            f"paper {paper}"
        )

    def test_all_13_vendors_amplify_above_500x_at_1mb(self):
        """Table I's headline: every examined CDN is SBR-vulnerable."""
        for vendor in all_vendor_names():
            result = SbrAttack(vendor, resource_size=1 * MB).run()
            assert result.amplification > 500, vendor


class TestShape:
    def test_factor_grows_with_resource_size(self):
        """Fig 6a: amplification is basically proportional to size."""
        results = sweep_resource_sizes("akamai", [1 * MB, 5 * MB, 10 * MB])
        factors = [r.amplification for r in results]
        assert factors[0] < factors[1] < factors[2]
        # Near-proportional growth.
        assert factors[2] / factors[0] == pytest.approx(10, rel=0.1)

    def test_client_traffic_flat_and_small(self):
        """Fig 6b: the client side stays under ~1500 bytes per request."""
        for size in (1 * MB, 10 * MB, 25 * MB):
            result = SbrAttack("akamai", resource_size=size).run()
            assert result.client_traffic <= 1500

    def test_azure_plateau_at_16mb(self):
        """Fig 6a: Azure's origin pull is capped near 16 MB."""
        at_17 = SbrAttack("azure", resource_size=17 * MB).run()
        at_25 = SbrAttack("azure", resource_size=25 * MB).run()
        assert at_17.origin_traffic == pytest.approx(at_25.origin_traffic, rel=0.01)
        assert at_25.origin_traffic == pytest.approx(16 * MB, rel=0.02)

    def test_cloudfront_plateau_at_10mb(self):
        """Fig 6a: CloudFront's factor stops growing past 10 MB."""
        at_10 = SbrAttack("cloudfront", resource_size=10 * MB).run()
        at_25 = SbrAttack("cloudfront", resource_size=25 * MB).run()
        assert at_25.amplification == pytest.approx(at_10.amplification, rel=0.02)

    def test_keycdn_has_largest_client_traffic(self):
        """Fig 6b: KeyCDN's two-request pattern doubles the client side."""
        keycdn = SbrAttack("keycdn", resource_size=10 * MB).run().client_traffic
        others = [
            SbrAttack(v, resource_size=10 * MB).run().client_traffic
            for v in ("akamai", "cloudflare", "gcore")
        ]
        assert keycdn > max(others)


class TestConfigGates:
    """The (*) rows of Table I: safe configurations do not amplify."""

    def test_alibaba_range_option_enable_stops_attack(self):
        result = SbrAttack(
            "alibaba",
            resource_size=1 * MB,
            config=VendorConfig(origin_range_option=True),
        ).run()
        assert result.amplification < 5

    def test_tencent_range_option_enable_stops_attack(self):
        result = SbrAttack(
            "tencent",
            resource_size=1 * MB,
            config=VendorConfig(origin_range_option=True),
        ).run()
        assert result.amplification < 5

    def test_huawei_range_option_disable_stops_attack(self):
        result = SbrAttack(
            "huawei",
            resource_size=1 * MB,
            config=VendorConfig(origin_range_option=False),
        ).run()
        assert result.amplification < 5

    def test_cloudflare_noncacheable_path_stops_attack(self):
        result = SbrAttack(
            "cloudflare",
            resource_size=1 * MB,
            config=VendorConfig(cacheable=False),
        ).run()
        assert result.amplification < 5
