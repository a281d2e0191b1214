"""Integration tests for the §VI-C mitigations: each one must actually
kill (or bound) the attack it targets, without breaking legitimate range
serving."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cdn.vendors import create_profile
from repro.core.deployment import CdnSpec, Deployment
from repro.core.obr import ObrAttack
from repro.core.sbr import SbrAttack
from repro.defense.mitigations import (
    MANY_SMALL_RANGES,
    MAX_OVERLAPPING_RANGES,
    SMALL_RANGE_BYTES,
    _overlapping_pair_count,
    rfc7233_multirange_guard,
    with_bounded_expansion,
    with_laziness,
    with_overlap_rejection,
)
from repro.http.message import HttpRequest
from repro.http.ranges import ResolvedRange
from repro.netsim.tap import CDN_ORIGIN
from repro.origin.server import OriginServer

from tests.conftest import make_origin

MB = 1 << 20


def _sbr_with_profile(profile, size=1 * MB):
    attack = SbrAttack("unused", resource_size=size)
    attack.build_deployment = lambda: Deployment.single(  # type: ignore[method-assign]
        CdnSpec(profile=profile), _origin(size)
    )
    return attack.run(range_cases=["bytes=0-0"])


def _origin(size):
    origin = OriginServer()
    origin.add_synthetic_resource("/target.bin", size)
    return origin


class TestLaziness:
    """G-Core's deployed fix: the Laziness policy removes the SBR attack."""

    def test_sbr_amplification_eliminated(self):
        vulnerable = SbrAttack("gcore", resource_size=1 * MB).run()
        mitigated = _sbr_with_profile(with_laziness(create_profile("gcore")))
        assert vulnerable.amplification > 1500
        assert mitigated.amplification < 3

    def test_legitimate_ranges_still_work(self):
        origin = make_origin(1000)
        deployment = Deployment.single(
            CdnSpec(profile=with_laziness(create_profile("gcore"))), origin
        )
        result = deployment.client().get("/file.bin", range_value="bytes=10-19")
        assert result.response.status == 206
        assert len(result.response.body) == 10

    def test_identity_preserved(self):
        mitigated = with_laziness(create_profile("cloudflare"))
        assert mitigated.server_header == "cloudflare"
        assert "mitigated" in mitigated.display_name


class TestBoundedExpansion:
    """The paper's +8 KB recommendation: prefetch survives, amplification
    collapses to a constant."""

    def test_origin_traffic_bounded_by_slack(self):
        mitigated = with_bounded_expansion(create_profile("gcore"), slack=8 * 1024)
        result = _sbr_with_profile(mitigated, size=10 * MB)
        # ~8 KB instead of 10 MB.
        assert result.origin_traffic < 16 * 1024
        assert result.amplification < 20

    def test_amplification_independent_of_resource_size(self):
        mitigated_small = _sbr_with_profile(
            with_bounded_expansion(create_profile("gcore")), size=1 * MB
        )
        mitigated_large = _sbr_with_profile(
            with_bounded_expansion(create_profile("gcore")), size=25 * MB
        )
        assert mitigated_large.amplification == pytest.approx(
            mitigated_small.amplification, rel=0.05
        )

    def test_requested_range_still_served(self):
        origin = make_origin(100_000)
        deployment = Deployment.single(
            CdnSpec(profile=with_bounded_expansion(create_profile("gcore"))), origin
        )
        result = deployment.client().get("/file.bin", range_value="bytes=5-9")
        assert result.response.status == 206
        assert result.response.headers.get("Content-Range") == "bytes 5-9/100000"


class TestOverlapRejection:
    """CDN77's deployed fix: RFC 7233 §6.1 guard kills the OBR back-end."""

    def test_overlapping_request_rejected_at_ingress(self):
        origin = make_origin(1024, range_support=False)
        deployment = Deployment.single(
            CdnSpec(profile=with_overlap_rejection(create_profile("akamai"))), origin
        )
        result = deployment.client().get(
            "/file.bin", range_value="bytes=" + ",".join(["0-"] * 64)
        )
        assert result.response.status == 431
        # Nothing was fetched from the origin.
        assert deployment.ledger.segment_stats(CDN_ORIGIN).exchange_count == 0

    def test_obr_attack_fails_against_mitigated_bcdn(self):
        attack = ObrAttack("cloudflare", "akamai")
        original_build = attack.build_deployment

        def mitigated_build():
            deployment = original_build()
            bcdn = deployment.nodes[1]
            bcdn.profile = with_overlap_rejection(bcdn.profile)
            return deployment

        attack.build_deployment = mitigated_build  # type: ignore[method-assign]
        # RFC 7233 6.1 tolerates up to two overlapping ranges, so tiny
        # requests still pass — but they no longer amplify (coalesced),
        # and anything larger is rejected outright.
        assert attack.find_max_n() <= 2
        result = attack.run(overlap_count=2)
        assert result.amplification < 5

    @pytest.mark.parametrize("vendor", ["akamai", "azure", "cdn77", "cloudflare"])
    def test_guard_keeps_the_inner_limits_and_declares_its_cap(self, vendor):
        inner = create_profile(vendor).limits
        limits = with_overlap_rejection(create_profile(vendor)).limits
        assert limits.max_total_header_bytes == inner.max_total_header_bytes
        assert limits.max_single_header_line_bytes == inner.max_single_header_line_bytes
        assert limits.max_ranges == inner.max_ranges
        assert limits.max_overlapping_ranges == MAX_OVERLAPPING_RANGES
        assert limits.custom is not None

    def test_benign_disjoint_multirange_still_served(self):
        origin = make_origin(1000)
        deployment = Deployment.single(
            CdnSpec(profile=with_overlap_rejection(create_profile("akamai"))), origin
        )
        result = deployment.client().get("/file.bin", range_value="bytes=0-1,10-19")
        assert result.response.status == 206


class TestRfc7233Guard:
    def _request(self, range_value):
        return HttpRequest(
            "GET", "/x", headers=[("Host", "h"), ("Range", range_value)]
        )

    def test_overlapping_flagged(self):
        guard = rfc7233_multirange_guard()
        assert guard(self._request("bytes=" + ",".join(["0-"] * 10))) is not None

    def test_many_small_ranges_flagged(self):
        guard = rfc7233_multirange_guard()
        specs = ",".join(f"{i * 100}-{i * 100}" for i in range(20))
        assert guard(self._request(f"bytes={specs}")) is not None

    def test_single_range_passes(self):
        guard = rfc7233_multirange_guard()
        assert guard(self._request("bytes=0-0")) is None

    def test_repeated_small_ranges_count_once_each(self):
        # 15 disjoint bytes plus one byte twice: one overlapping pair,
        # and 17 small ranges once the repeat counts as two.
        specs = ",".join(f"{i * 10}-{i * 10}" for i in range(15)) + ",200-200,200-200"
        guard = rfc7233_multirange_guard()
        assert guard(self._request(f"bytes={specs}")) == "17 small ranges (RFC 7233 6.1 guard)"

    def test_two_disjoint_ranges_pass(self):
        guard = rfc7233_multirange_guard()
        assert guard(self._request("bytes=0-99999,200000-300000")) is None

    def test_no_range_header_passes(self):
        guard = rfc7233_multirange_guard()
        assert guard(HttpRequest("GET", "/x", headers=[("Host", "h")])) is None

    @given(
        runs=st.lists(
            st.tuples(
                st.tuples(st.integers(0, 40), st.integers(0, 40)),
                st.integers(min_value=1, max_value=6),
            ),
            max_size=8,
        )
    )
    @settings(max_examples=300)
    def test_pair_count_matches_all_pairs_scan(self, runs):
        runs = [(ResolvedRange(min(ends), max(ends)), count) for ends, count in runs]
        ranges = [r for r, count in runs for _ in range(count)]
        naive = sum(
            1
            for i, a in enumerate(ranges)
            for b in ranges[i + 1:]
            if a.start <= b.end and b.start <= a.end
        )
        assert _overlapping_pair_count(runs) == naive

    @given(
        specs=st.lists(
            st.tuples(
                st.sampled_from(["0-", "0-63", "64-127", "100-", "-10", "5-5", "500-900"]),
                st.integers(min_value=1, max_value=20),
            ),
            min_size=1,
            max_size=5,
        )
    )
    @settings(max_examples=200)
    def test_guard_matches_spec_by_spec_rules(self, specs):
        """The guard's verdict equals RFC 7233 §6.1's rules applied to the
        expanded list of resolved ranges."""
        header = "bytes=" + ",".join(spec for spec, count in specs for _ in range(count))
        size = 1 << 30
        windows = []
        for spec, count in specs:
            first, _, last = spec.partition("-")
            if not first:
                window = ResolvedRange(size - int(last), size - 1)
            else:
                window = ResolvedRange(int(first), int(last) if last else size - 1)
            windows += [window] * count
        pairs = sum(
            1
            for i, a in enumerate(windows)
            for b in windows[i + 1:]
            if a.start <= b.end and b.start <= a.end
        )
        small = sum(1 for w in windows if w.length <= SMALL_RANGE_BYTES)
        if len(windows) < 2:
            expected = None
        elif pairs > MAX_OVERLAPPING_RANGES:
            expected = f"{pairs} overlapping range pairs (RFC 7233 6.1 guard)"
        elif small >= MANY_SMALL_RANGES:
            expected = f"{small} small ranges (RFC 7233 6.1 guard)"
        elif pairs and len(windows) > MAX_OVERLAPPING_RANGES:
            expected = "overlapping multi-range request (RFC 7233 6.1 guard)"
        else:
            expected = None
        assert rfc7233_multirange_guard()(self._request(header)) == expected


class TestConfigRoundTrip:
    """Mitigated profiles must survive round-trips through deployment and
    classification with the *inner* vendor's configuration intact —
    ``default_config`` is a classmethod, so a wrapper class can't know
    the wrapped vendor; the instance-level ``effective_config`` hook
    carries it instead."""

    def test_deployment_node_gets_inner_vendor_config(self):
        origin = make_origin(1000)
        mitigated = with_laziness(create_profile("huawei"))
        deployment = Deployment.single(CdnSpec(profile=mitigated), origin)
        inner_config = create_profile("huawei").effective_config()
        assert deployment.nodes[0].config == inner_config
        # Huawei's Range origin option is the distinctive bit that a
        # class-level default would silently drop.
        assert deployment.nodes[0].config.origin_range_option is True

    def test_classify_sbr_round_trips_mitigated_profile(self):
        from repro.analysis.classify import classify_sbr

        clean = classify_sbr("gcore")
        mitigated = classify_sbr(
            "gcore",
            profile=with_laziness(create_profile("gcore")),
        )
        assert clean.vulnerable
        assert not mitigated.vulnerable

    def test_bare_class_default_config_is_base_fallback(self):
        from repro.cdn.vendors.base import VendorProfile
        from repro.defense.mitigations import MitigatedProfile

        assert MitigatedProfile.default_config() == VendorProfile.default_config()


class TestInvalidMode:
    def test_unknown_forwarding_mode_rejected(self):
        from repro.defense.mitigations import MitigatedProfile

        with pytest.raises(ValueError):
            MitigatedProfile(create_profile("gcore"), forwarding="nonsense")
