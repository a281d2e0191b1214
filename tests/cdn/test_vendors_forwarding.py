"""Per-vendor forwarding behavior tests (paper Tables I and II).

Each test pins one row of the paper's behavior tables: which Range
formats a vendor deletes, expands, or forwards unchanged, including the
config-conditional cases.
"""

import pytest

from repro.cdn.policy import ForwardPolicy
from repro.cdn.vendors import all_vendor_names, create_profile
from repro.cdn.vendors.base import EdgeState, VendorConfig, VendorContext
from repro.http.message import HttpRequest
from repro.http.ranges import try_parse_range_header

MB = 1 << 20


def decide(vendor, range_value, config=None, size_hint=None):
    """Run one forwarding decision through the vendor's profile, as a
    fresh edge node would."""
    profile = create_profile(vendor)
    request = HttpRequest(
        "GET", "/file.bin", headers=[("Host", "h"), ("Range", range_value)]
    )
    ctx = VendorContext(
        config=config if config is not None else type(profile).default_config(),
        resource_size_hint=size_hint,
    )
    spec = try_parse_range_header(range_value)
    return profile.forward_decision(request, spec, ctx)


class TestNoRangeHeader:
    @pytest.mark.parametrize("vendor", all_vendor_names())
    def test_plain_requests_forwarded_unchanged(self, vendor):
        profile = create_profile(vendor)
        request = HttpRequest("GET", "/file.bin", headers=[("Host", "h")])
        ctx = VendorContext(config=type(profile).default_config())
        decision = profile.forward_decision(request, None, ctx)
        assert decision.policy is ForwardPolicy.LAZINESS
        assert decision.forwarded_range is None


class TestAkamai:
    """Table I: Deletion for first-last and -suffix."""

    @pytest.mark.parametrize("value", ["bytes=0-0", "bytes=-1", "bytes=5-", "bytes=0-,0-"])
    def test_always_deletes(self, value):
        assert decide("akamai", value).policy is ForwardPolicy.DELETION


class TestAlibaba:
    """Table I: Deletion for -suffix, conditional on the Range option."""

    def test_suffix_deleted_by_default(self):
        assert decide("alibaba", "bytes=-1").policy is ForwardPolicy.DELETION

    def test_closed_range_lazy(self):
        assert decide("alibaba", "bytes=0-0").policy is ForwardPolicy.LAZINESS

    def test_range_option_enabled_removes_vulnerability(self):
        decision = decide(
            "alibaba", "bytes=-1", config=VendorConfig(origin_range_option=True)
        )
        assert decision.policy is ForwardPolicy.LAZINESS


class TestCdn77:
    """Table I: Deletion for first-last with first < 1024; Table II:
    multi-range lazy when led by a spec outside the deletion zone."""

    def test_low_closed_range_deleted(self):
        assert decide("cdn77", "bytes=0-0").policy is ForwardPolicy.DELETION
        assert decide("cdn77", "bytes=1023-2000").policy is ForwardPolicy.DELETION

    def test_high_closed_range_lazy(self):
        assert decide("cdn77", "bytes=1024-2000").policy is ForwardPolicy.LAZINESS

    def test_suffix_lazy(self):
        assert decide("cdn77", "bytes=-1").policy is ForwardPolicy.LAZINESS

    def test_suffix_led_multirange_lazy(self):
        """The paper's exploited OBR case: bytes=-1024,0-,...,0-."""
        decision = decide("cdn77", "bytes=-1024,0-,0-,0-")
        assert decision.policy is ForwardPolicy.LAZINESS
        assert decision.forwarded_range == "bytes=-1024,0-,0-,0-"

    def test_zero_led_multirange_deleted(self):
        assert decide("cdn77", "bytes=0-,0-,0-").policy is ForwardPolicy.DELETION


class TestCdnsun:
    """Table I: Deletion for 0-last; Table II: lazy when start1 >= 1."""

    def test_zero_anchored_deleted(self):
        assert decide("cdnsun", "bytes=0-500").policy is ForwardPolicy.DELETION
        assert decide("cdnsun", "bytes=0-").policy is ForwardPolicy.DELETION

    def test_nonzero_lazy(self):
        assert decide("cdnsun", "bytes=1-500").policy is ForwardPolicy.LAZINESS

    def test_one_led_multirange_lazy(self):
        """The paper's exploited OBR case: bytes=1-,0-,...,0-."""
        decision = decide("cdnsun", "bytes=1-,0-,0-")
        assert decision.policy is ForwardPolicy.LAZINESS
        assert decision.forwarded_range == "bytes=1-,0-,0-"

    def test_zero_led_multirange_deleted(self):
        assert decide("cdnsun", "bytes=0-,0-").policy is ForwardPolicy.DELETION


class TestCloudflare:
    """Table I (*): Deletion only when cacheable; Table II (*): lazy only
    under the Bypass rule."""

    @pytest.mark.parametrize("value", ["bytes=0-0", "bytes=-1"])
    def test_deletes_when_cacheable(self, value):
        assert decide("cloudflare", value).policy is ForwardPolicy.DELETION

    def test_lazy_when_not_cacheable(self):
        decision = decide(
            "cloudflare", "bytes=0-0", config=VendorConfig(cacheable=False)
        )
        assert decision.policy is ForwardPolicy.LAZINESS

    def test_lazy_under_bypass(self):
        decision = decide(
            "cloudflare", "bytes=0-,0-,0-", config=VendorConfig(bypass_cache=True)
        )
        assert decision.policy is ForwardPolicy.LAZINESS

    def test_multirange_deleted_under_default_config(self):
        assert decide("cloudflare", "bytes=0-,0-").policy is ForwardPolicy.DELETION


class TestCloudFront:
    """Table I / §V-A item 3: MB-aligned Expansion."""

    def test_single_range_expanded_to_mb(self):
        decision = decide("cloudfront", "bytes=0-0")
        assert decision.policy is ForwardPolicy.EXPANSION
        assert decision.forwarded_range == "bytes=0-1048575"

    def test_interior_range_alignment(self):
        decision = decide("cloudfront", "bytes=1500000-1600000")
        assert decision.forwarded_range == f"bytes={MB}-{2 * MB - 1}"

    def test_paper_multirange_example(self):
        """bytes=0-0,9437184-9437184 becomes bytes=0-10485759."""
        decision = decide("cloudfront", "bytes=0-0,9437184-9437184")
        assert decision.policy is ForwardPolicy.EXPANSION
        assert decision.forwarded_range == "bytes=0-10485759"

    def test_multirange_over_cap_expands_first_only(self):
        decision = decide("cloudfront", "bytes=0-0,20971520-20971520")
        assert decision.policy is ForwardPolicy.EXPANSION
        assert decision.forwarded_range == "bytes=0-1048575"

    def test_suffix_lazy(self):
        assert decide("cloudfront", "bytes=-1").policy is ForwardPolicy.LAZINESS

    def test_open_range_lazy(self):
        assert decide("cloudfront", "bytes=5-").policy is ForwardPolicy.LAZINESS


class TestFastlyAndGcore:
    @pytest.mark.parametrize("vendor", ["fastly", "gcore"])
    @pytest.mark.parametrize("value", ["bytes=0-0", "bytes=-1"])
    def test_deletion(self, vendor, value):
        assert decide(vendor, value).policy is ForwardPolicy.DELETION

    @pytest.mark.parametrize("vendor", ["fastly", "gcore"])
    def test_multirange_not_lazy(self, vendor):
        """Neither appears in Table II: they must not be OBR front-ends."""
        assert decide(vendor, "bytes=0-,0-").policy is not ForwardPolicy.LAZINESS


class TestHuawei:
    """Table I: the 10 MB behavior switch, conditional on the Range
    option being enabled."""

    def test_suffix_deleted_for_small_resources(self):
        decision = decide("huawei", "bytes=-1", size_hint=1 * MB)
        assert decision.policy is ForwardPolicy.DELETION

    def test_suffix_lazy_for_large_resources(self):
        decision = decide("huawei", "bytes=-1", size_hint=10 * MB)
        assert decision.policy is ForwardPolicy.LAZINESS

    def test_closed_deleted_for_large_resources(self):
        decision = decide("huawei", "bytes=0-0", size_hint=10 * MB)
        assert decision.policy is ForwardPolicy.DELETION

    def test_closed_lazy_for_small_resources(self):
        decision = decide("huawei", "bytes=0-0", size_hint=1 * MB)
        assert decision.policy is ForwardPolicy.LAZINESS

    def test_unknown_size_treated_as_small(self):
        assert decide("huawei", "bytes=-1", size_hint=None).policy is ForwardPolicy.DELETION

    def test_range_option_disabled_removes_vulnerability(self):
        decision = decide(
            "huawei",
            "bytes=-1",
            config=VendorConfig(origin_range_option=False),
            size_hint=1 * MB,
        )
        assert decision.policy is ForwardPolicy.LAZINESS


class TestKeycdn:
    """Table I / §V-A item 4: Laziness on first sight, Deletion on the
    second identical request."""

    def test_first_lazy_second_deleted(self):
        profile = create_profile("keycdn")
        request = HttpRequest(
            "GET", "/file.bin?cb=0", headers=[("Host", "h"), ("Range", "bytes=0-0")]
        )
        ctx = VendorContext(config=VendorConfig())
        spec = try_parse_range_header("bytes=0-0")
        first = profile.forward_decision(request, spec, ctx)
        second = profile.forward_decision(request, spec, ctx)
        assert first.policy is ForwardPolicy.LAZINESS
        assert second.policy is ForwardPolicy.DELETION

    def test_state_is_per_url_and_range(self):
        profile = create_profile("keycdn")
        ctx = VendorContext(config=VendorConfig())

        def one(target, value):
            request = HttpRequest(
                "GET", target, headers=[("Host", "h"), ("Range", value)]
            )
            return profile.forward_decision(
                request, try_parse_range_header(value), ctx
            )

        assert one("/a?cb=0", "bytes=0-0").policy is ForwardPolicy.LAZINESS
        assert one("/a?cb=1", "bytes=0-0").policy is ForwardPolicy.LAZINESS
        assert one("/a?cb=0", "bytes=1-1").policy is ForwardPolicy.LAZINESS
        assert one("/a?cb=0", "bytes=0-0").policy is ForwardPolicy.DELETION

    def test_a_fresh_node_has_seen_nothing(self):
        # The sightings are the node's: another node sharing the one
        # profile answers a repeat lazily, the node that saw it deletes.
        profile = create_profile("keycdn")
        request = HttpRequest(
            "GET", "/a", headers=[("Host", "h"), ("Range", "bytes=0-0")]
        )
        spec = try_parse_range_header("bytes=0-0")

        def ask(state):
            ctx = VendorContext(config=VendorConfig(), state=state)
            return profile.forward_decision(request, spec, ctx).policy

        seen_once = EdgeState()
        assert ask(seen_once) is ForwardPolicy.LAZINESS
        assert ask(EdgeState()) is ForwardPolicy.LAZINESS
        assert ask(seen_once) is ForwardPolicy.DELETION
        assert seen_once.seen == {("h", "/a", "bytes=0-0")}


class TestTencent:
    def test_closed_deleted_by_default(self):
        assert decide("tencent", "bytes=0-0").policy is ForwardPolicy.DELETION

    def test_suffix_lazy(self):
        assert decide("tencent", "bytes=-1").policy is ForwardPolicy.LAZINESS

    def test_range_option_enabled_removes_vulnerability(self):
        decision = decide(
            "tencent", "bytes=0-0", config=VendorConfig(origin_range_option=True)
        )
        assert decision.policy is ForwardPolicy.LAZINESS


class TestRegistry:
    def test_thirteen_vendors(self):
        assert len(all_vendor_names()) == 13

    def test_profiles_are_shared_instances(self):
        assert create_profile("keycdn") is create_profile("keycdn")

    def test_unknown_vendor(self):
        from repro.errors import UnknownVendorError

        with pytest.raises(UnknownVendorError):
            create_profile("notacdn")
