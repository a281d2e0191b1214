"""CCFC static analysis: bounds, exactness, and the decision table.

The CCFC closed form is a *mirror*, not an estimate — it replays the
byte-defining code paths at O(1) cost — so the contract here is
stronger than the SBR/OBR soundness checks: every bound must equal the
simulated factor, not merely dominate it.  The hypothesis block keeps
the weaker ``sim <= bound`` property as the safety net over random
sizes and compression ratios.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.bounds import CcfcBound, ccfc_bound, profile_ccfc_bound
from repro.analysis.classify import classify_ccfc
from repro.cdn.vendors import all_vendor_names, create_profile
from repro.cdn.vendors.base import EncodingPolicy
from repro.cdn.vendors.cloudflare import CloudflareProfile
from repro.core.ccfc import CcfcAttack
from repro.defense.mitigations import (
    with_encoding_normalization,
    with_encoding_passthrough,
)

MB = 1 << 20
KB = 1 << 10

#: The seven rewrite+decompress vendors (arXiv 2409.00712 Table 3).
VULNERABLE = (
    "alibaba",
    "cdn77",
    "cloudflare",
    "cloudfront",
    "fastly",
    "huawei",
    "keycdn",
)


def _cloudflare_with_ratios(br, gzip):
    """Cloudflare with other compression ratios.  Profiles are immutable,
    so the ratios are a subclass's class attribute."""

    class Recompressed(CloudflareProfile):
        compression_ratios = {"br": br, "gzip": gzip, "identity": 1.0}

    return Recompressed()


class TestCcfcBound:
    def test_every_vendor_has_a_bound(self):
        for vendor in all_vendor_names():
            bound = ccfc_bound(vendor, 1 * MB)
            assert isinstance(bound, CcfcBound)
            assert bound.victim_bytes_upper > 0
            assert bound.attacker_bytes_lower > 0
            assert bound.factor > 0

    @pytest.mark.parametrize("vendor", VULNERABLE)
    def test_vulnerable_vendors_amplify(self, vendor):
        bound = ccfc_bound(vendor, 1 * MB)
        assert bound.encoding in ("br", "gzip")
        assert bound.factor > 100

    def test_safe_vendors_stay_near_unity(self):
        for vendor in set(all_vendor_names()) - set(VULNERABLE):
            bound = ccfc_bound(vendor, 1 * MB)
            assert bound.factor < 2, vendor

    def test_factor_grows_with_size(self):
        # Header overhead amortizes as the body grows, so the factor
        # approaches 1/ratio from below.
        small = ccfc_bound("cloudflare", 1 * MB)
        large = ccfc_bound("cloudflare", 10 * MB)
        assert large.factor > small.factor

    def test_brotli_beats_gzip(self):
        # Cloudflare negotiates br (ratio 0.0005); Fastly only gzip
        # (0.001) — the better coding doubles the inflation.
        assert ccfc_bound("cloudflare", 1 * MB).factor > ccfc_bound(
            "fastly", 1 * MB
        ).factor


class TestBoundEqualsSimulation:
    @pytest.mark.parametrize("vendor", all_vendor_names())
    def test_exact_on_every_vendor(self, vendor):
        simulated = CcfcAttack(vendor, resource_size=1 * MB).run()
        bound = ccfc_bound(vendor, 1 * MB)
        assert simulated.amplification == bound.factor, vendor
        assert simulated.client_traffic == bound.victim_bytes_upper
        assert simulated.origin_traffic == bound.attacker_bytes_lower
        assert simulated.encoding == bound.encoding

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        vendor=st.sampled_from(all_vendor_names()),
        size=st.integers(min_value=4 * KB, max_value=2 * MB),
    )
    def test_random_sizes_never_exceed_the_bound(self, vendor, size):
        simulated = CcfcAttack(vendor, resource_size=size).run()
        assert simulated.amplification <= ccfc_bound(vendor, size).factor

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        size=st.integers(min_value=4 * KB, max_value=1 * MB),
        br_ratio=st.floats(min_value=0.0001, max_value=1.5),
        gzip_ratio=st.floats(min_value=0.0001, max_value=1.5),
    )
    def test_random_ratios_never_exceed_the_bound(
        self, size, br_ratio, gzip_ratio
    ):
        profile = _cloudflare_with_ratios(br=br_ratio, gzip=gzip_ratio)
        attack = CcfcAttack("cloudflare", resource_size=size, profile=profile)
        bound = profile_ccfc_bound("cloudflare", profile, size)
        assert attack.run().amplification <= bound.factor


class TestClassifyDecisionTable:
    """One row per mechanism of the arXiv 2409.00712 Table 3 read."""

    def test_rewrite_and_decompress_is_vulnerable(self):
        decision = classify_ccfc("cloudflare")
        assert decision.vulnerable
        assert decision.mechanism == "rewrite+decompress"
        assert decision.encoding_policy is EncodingPolicy.REWRITE
        assert decision.min_ratio is not None and decision.min_ratio < 1.0

    def test_rewrite_without_decompression_is_safe(self):
        decision = classify_ccfc("tencent")
        assert not decision.vulnerable
        assert decision.mechanism == "rewrite-no-decompress"

    def test_forwarding_is_safe(self):
        decision = classify_ccfc("akamai")
        assert not decision.vulnerable
        assert decision.mechanism == "forward"
        assert decision.min_ratio is None

    def test_stripping_is_safe(self):
        decision = classify_ccfc("gcore")
        assert not decision.vulnerable
        assert decision.mechanism == "strip"

    def test_incompressible_rewrite_is_safe(self):
        profile = _cloudflare_with_ratios(br=1.0, gzip=1.0)
        decision = classify_ccfc("cloudflare", profile=profile)
        assert not decision.vulnerable
        assert decision.mechanism == "rewrite-incompressible"

    def test_vulnerable_set_matches_the_paper(self):
        vulnerable = {
            vendor
            for vendor in all_vendor_names()
            if classify_ccfc(vendor).vulnerable
        }
        assert vulnerable == set(VULNERABLE)


class TestEncodingMitigations:
    @pytest.mark.parametrize("vendor", VULNERABLE)
    def test_passthrough_collapses_the_factor(self, vendor):
        profile = with_encoding_passthrough(create_profile(vendor))
        residual = profile_ccfc_bound(vendor, profile, 1 * MB)
        assert residual.encoding is None
        assert residual.factor < 1.01

    @pytest.mark.parametrize("vendor", VULNERABLE)
    def test_normalization_collapses_the_factor(self, vendor):
        profile = with_encoding_normalization(create_profile(vendor))
        # An identity-only client under NORMALIZE gets an identity
        # upstream request: nothing to inflate.
        residual = profile_ccfc_bound(vendor, profile, 1 * MB)
        assert residual.factor < 1.01

    def test_mitigated_residual_is_itself_exact(self):
        profile = with_encoding_passthrough(create_profile("cloudflare"))
        simulated = CcfcAttack("cloudflare", resource_size=1 * MB, profile=profile).run()
        residual = profile_ccfc_bound("cloudflare", profile, 1 * MB)
        assert simulated.amplification == residual.factor
