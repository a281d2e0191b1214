"""Tests for the vendor behavior matrix — every profile's forwarding
decision per Range shape, as :mod:`repro.analysis.classify` reads it —
including the cross-check against the feasibility experiment's
independent measurement path."""

import pytest

from repro.analysis.bounds import static_max_n
from repro.analysis.classify import (
    DEFAULT_PROBE_SIZES,
    MULTI_RANGE_SHAPES,
    SINGLE_RANGE_SHAPES,
    classify_cascade,
    classify_obr_frontend,
    classify_sbr,
    probe_decision,
    probe_request,
)
from repro.cdn.policy import ForwardPolicy
from repro.cdn.vendors import all_vendor_names, create_profile
from repro.cdn.vendors.base import EdgeState, VendorContext
from repro.http.ranges import try_parse_range_header
from repro.reporting.paper_values import PAPER_OBR_FRONTENDS, PAPER_SBR_VULNERABLE

MB = 1 << 20


def sbr_vulnerable():
    return {v for v in all_vendor_names() if classify_sbr(v).vulnerable}


def obr_frontends():
    # The back end does not change the front end's decisions.
    return {v for v in all_vendor_names() if classify_cascade(v, "akamai").lazy_probes}


def both_sightings(vendor, range_value="bytes=0-0", size=MB):
    """First and second decision for one identical request reaching one
    edge node (one :class:`EdgeState`)."""
    profile = create_profile(vendor)
    state = EdgeState()
    return [
        profile.forward_decision(
            probe_request(range_value),
            try_parse_range_header(range_value),
            VendorContext(profile.effective_config(), size, state=state),
        ).policy
        for _ in range(2)
    ]


class TestMatrixStructure:
    def test_full_coverage(self):
        for vendor in all_vendor_names():
            for size in DEFAULT_PROBE_SIZES:
                for shape in SINGLE_RANGE_SHAPES + MULTI_RANGE_SHAPES:
                    probe = probe_decision(vendor, shape, size)
                    assert (probe.range_value, probe.resource_size) == (shape, size)
                    assert isinstance(probe.policy, ForwardPolicy)

    def test_deterministic(self):
        for vendor in all_vendor_names():
            assert classify_sbr(vendor) == classify_sbr(vendor)
            assert classify_cascade(vendor, "akamai") == classify_cascade(
                vendor, "akamai"
            )


class TestPaperMembershipFromMatrix:
    def test_sbr_vulnerable_matches_table1(self):
        assert sbr_vulnerable() == set(PAPER_SBR_VULNERABLE)

    def test_obr_frontends_match_table2(self):
        assert obr_frontends() == set(PAPER_OBR_FRONTENDS)

    def test_obr_frontends_without_bypass_excludes_cloudflare(self):
        # Cloudflare is a front end only under its declared Bypass
        # configuration; every other front end runs its default one.
        assert classify_obr_frontend("cloudflare") == ()
        cloudflare = classify_cascade("cloudflare", "akamai")
        assert cloudflare.lazy_probes and cloudflare.requires_bypass
        for vendor in set(PAPER_OBR_FRONTENDS) - {"cloudflare"}:
            assert classify_obr_frontend(vendor), vendor
            assert not classify_cascade(vendor, "akamai").requires_bypass, vendor


class TestSpotChecks:
    def test_azure_size_dependence_visible(self):
        # Azure deletes in both regimes (the dual-connection behavior is
        # a fetch-flow detail, not a decision-table one).
        for size in DEFAULT_PROBE_SIZES:
            assert probe_decision("azure", "bytes=0-0", size).policy is (
                ForwardPolicy.DELETION
            )

    def test_huawei_size_dependence_visible(self):
        def policy(range_value, size):
            return probe_decision("huawei", range_value, size).policy

        assert policy("bytes=-1", 1 * MB) is ForwardPolicy.DELETION
        assert policy("bytes=-1", 25 * MB) is ForwardPolicy.LAZINESS
        assert policy("bytes=0-0", 25 * MB) is ForwardPolicy.DELETION
        assert policy("bytes=0-0", 1 * MB) is ForwardPolicy.LAZINESS

    def test_cloudfront_expansion_values(self):
        probe = probe_decision("cloudfront", "bytes=0-0", 1 * MB)
        assert probe.policy is ForwardPolicy.EXPANSION
        assert probe.forwarded_range == "bytes=0-1048575"

    def test_keycdn_stateful_quirk(self):
        assert both_sightings("keycdn") == [
            ForwardPolicy.LAZINESS,
            ForwardPolicy.DELETION,
        ]
        keycdn = classify_sbr("keycdn")
        assert keycdn.mechanism == "stateful-deletion"
        assert not keycdn.amplifying_probes and keycdn.stateful_probes
        # Stateless vendors give the same answer twice.
        assert both_sightings("gcore") == [ForwardPolicy.DELETION] * 2
        assert both_sightings("tencent") == [ForwardPolicy.DELETION] * 2


class TestCrossValidationAgainstFeasibility:
    """The decision tables (static) and the feasibility probe
    (traffic-level) must classify identically — two measurement paths,
    one truth."""

    @pytest.fixture(scope="class")
    def feasibility(self):
        from repro.core.feasibility import survey

        return survey(file_size=16 * 1024)

    def test_sbr_membership_agrees(self, feasibility):
        from_probe = {v for v, r in feasibility.items() if r.sbr_vulnerable}
        assert from_probe == sbr_vulnerable()

    def test_fcdn_membership_agrees(self, feasibility):
        from_probe = {v for v, r in feasibility.items() if r.obr_fcdn_vulnerable}
        assert from_probe == obr_frontends()


class TestOneConfigurationSource:
    def test_vulnerable_cascades_admit_two_overlaps(self):
        # classify_cascade and static_max_n read the front end under the
        # same declared configuration, so every cascade the classifier
        # flags admits the attack's minimum of two overlapping ranges.
        vendors = all_vendor_names()
        flagged = [
            (fcdn, bcdn)
            for fcdn in vendors
            for bcdn in vendors
            if fcdn != bcdn and classify_cascade(fcdn, bcdn).vulnerable
        ]
        assert flagged
        for fcdn, bcdn in flagged:
            assert static_max_n(fcdn, bcdn) >= 2, (fcdn, bcdn)
