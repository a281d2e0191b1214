"""The static audit reads each pure fact once.

A cold ``analyze_vendor_matrix`` + ``recommend`` asks each OBR front end
for its multi-range decisions once per ``(vendor, config)`` (plus the
size for Huawei, whose decisions read it) — not once per back end —
reads each back end's reply facts once, and certifies every max-n
search, the RFC 7233 guarded ones included, with two static probes.
Recommendations bound no candidate costlier than the one they choose.  SBR classifications, which probe fixed size
regimes, are read once per ``(vendor, config, profile)`` whatever the
size.  Each distinct OBR Range value is built once and parsed once.
The max-n probes compare header sizes, so no search runs
``HeaderLimits.check`` or builds a request per probe, and the
classifiers and SBR bounds hand one shared request per Range value
they ask a decision table about.  The memo
changes only how often a decision is read, never an answer.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import bounds, classify
from repro.analysis.bounds import profile_sbr_bound, static_max_n
from repro.analysis.classify import (
    DEFAULT_PROBE_SIZES,
    MULTI_RANGE_SHAPES,
    SINGLE_RANGE_SHAPES,
    classify_cascade,
    classify_obr_frontend,
    classify_sbr,
    vulnerable_cascade,
)
from repro.analysis.recommend import recommend
from repro.analysis.report import analyze_vendor_matrix
from repro.cdn.limits import HeaderLimits
from repro.cdn.vendors import all_vendor_names, create_profile, profile_class
from repro.cdn.vendors.base import VendorContext
from repro.defense.mitigations import with_laziness
from repro.families.base import mitigated_profile
from repro.http import grammar, ranges
from repro.http.message import HttpRequest
from repro.http.ranges import try_parse_range_header
from repro.obs.memo import clear_all_memos, memo_stats

SIZES = dict(resource_size=3_000_001, obr_resource_size=777, ccfc_resource_size=2_000_003)
MB = 1 << 20


class _Counter:
    def __init__(self, fn, counts):
        self.fn = fn
        self.counts = counts
        self.calls = 0

    def __call__(self, *args, **kwargs):
        if self.counts(*args, **kwargs):
            self.calls += 1
        return self.fn(*args, **kwargs)


@pytest.fixture
def cold():
    clear_all_memos()
    yield
    clear_all_memos()


def _count_multirange_decisions(monkeypatch):
    counter = _Counter(
        classify.probe_decision,
        lambda vendor, shape, *rest, **kwargs: shape in MULTI_RANGE_SHAPES,
    )
    monkeypatch.setattr(classify, "probe_decision", counter)
    return counter


def test_cold_matrix_reads_each_front_end_once(cold, monkeypatch):
    decisions = _count_multirange_decisions(monkeypatch)
    analyze_vendor_matrix(**SIZES)
    vendors = len(all_vendor_names())
    assert memo_stats()["obr_frontend"].misses == vendors
    assert decisions.calls <= vendors * len(MULTI_RANGE_SHAPES)


def test_cold_matrix_reads_back_end_facts_once_per_vendor(cold, monkeypatch):
    # Each ordered pair reads both halves from per-vendor memos, and a
    # classification is built only for a pair where both halves hold.
    reads = _count(monkeypatch, classify, "profile_class")
    built = _count(monkeypatch, classify.CascadeClassification, "__init__")
    report = analyze_vendor_matrix(**SIZES)
    vendors = len(all_vendor_names())
    assert len(reads) == vendors
    stats = memo_stats()["obr_backend"]
    assert (stats.misses, stats.lookups) == (vendors, vendors * (vendors - 1))
    assert len(built) == len(report.by_kind("obr")) == 11


def test_the_cascade_screen_answers_as_the_full_classification(cold):
    vendors = all_vendor_names()
    for fcdn in vendors:
        for bcdn in vendors:
            if fcdn == bcdn:
                continue
            full = classify_cascade(fcdn, bcdn)
            expected = full if full.vulnerable else None
            assert vulnerable_cascade(fcdn, bcdn, 1024, None) == expected


def test_cold_audit_takes_two_static_probes_per_search(cold, monkeypatch):
    probes = _Counter(bounds._sized_probe, lambda *args, **kwargs: True)
    monkeypatch.setattr(bounds, "_sized_probe", probes)
    report = analyze_vendor_matrix(**SIZES)
    recommend(report=report, **SIZES)
    # 11 registry cascades and their 11 overlap-rejection@bcdn residuals,
    # two each.  That guard is every cascade's first candidate and always
    # suffices, so no costlier candidate is bounded.
    assert probes.calls == 44


def test_findings_are_identical_cold_and_warm(cold):
    cold_json = analyze_vendor_matrix(**SIZES).to_json()
    warm_json = analyze_vendor_matrix(**SIZES).to_json()
    assert memo_stats()["obr_frontend"].hits > 0
    assert warm_json == cold_json


def test_sbr_classification_is_read_once_per_vendor_config_and_factory(cold):
    # classify_sbr probes fixed size regimes, so a fresh resource size
    # asks nothing new of the decision tables.
    first = analyze_vendor_matrix(**SIZES).to_json()
    misses = memo_stats()["classify_sbr"].misses
    assert misses == len(all_vendor_names())
    fresh = dict(SIZES, resource_size=SIZES["resource_size"] + 1)
    analyze_vendor_matrix(**fresh)
    assert memo_stats()["classify_sbr"].misses == misses
    clear_all_memos()
    assert analyze_vendor_matrix(**SIZES).to_json() == first


def test_mitigated_profiles_are_memo_keys(cold):
    profile = mitigated_profile("akamai", "laziness")
    assert profile is mitigated_profile("akamai", "laziness")
    assert profile is not mitigated_profile("akamai", "slicing")
    assert profile is not mitigated_profile("fastly", "laziness")
    shared = memo_stats()["mitigated_profile"]
    assert (shared.misses, shared.hits) == (3, 1)

    mitigated = classify_sbr("akamai", profile=profile)
    again = classify_sbr("akamai", profile=mitigated_profile("akamai", "laziness"))
    assert again is mitigated and not mitigated.vulnerable
    stats = memo_stats()["classify_sbr"]
    assert (stats.misses, stats.hits) == (1, 1)

    # Clearing the memos drops the shared profiles too; the rebuilt one
    # answers the same.
    clear_all_memos()
    rebuilt = mitigated_profile("akamai", "laziness")
    assert rebuilt is not profile
    assert classify_sbr("akamai", profile=rebuilt) == mitigated


def test_ad_hoc_profiles_are_memo_keys_by_identity(cold):
    ad_hoc = with_laziness(create_profile("akamai"))
    first = classify_sbr("akamai", profile=ad_hoc)
    assert classify_sbr("akamai", profile=ad_hoc) is first
    max_n = static_max_n("cdn77", "akamai", bcdn_profile=ad_hoc)
    assert static_max_n("cdn77", "akamai", bcdn_profile=ad_hoc) == max_n
    # An equal profile built apart is another key with the same answer.
    twin = with_laziness(create_profile("akamai"))
    assert classify_sbr("akamai", profile=twin) == first
    assert static_max_n("cdn77", "akamai", bcdn_profile=twin) == max_n
    for name in ("classify_sbr", "static_max_n"):
        stats = memo_stats()[name]
        assert (stats.misses, stats.hits) == (2, 1), name


def test_front_end_decisions_are_read_without_the_size_except_huaweis(cold):
    vendors = all_vendor_names()
    for vendor in vendors:
        classify_obr_frontend(vendor, 1024)
        classify_obr_frontend(vendor, 25 * MB)
    # Only Huawei's decisions read the size (its 10 MB switch), so only
    # its answer is stored per size.
    assert memo_stats()["obr_frontend"].misses == len(vendors) + 1


@given(
    vendor=st.sampled_from(all_vendor_names()),
    warm_size=st.integers(min_value=1, max_value=20 * MB),
    size=st.integers(min_value=1, max_value=20 * MB),
)
@settings(max_examples=60, deadline=None)
def test_a_warm_front_end_answer_equals_a_cold_one_at_any_size(vendor, warm_size, size):
    clear_all_memos()
    classify_obr_frontend(vendor, warm_size)
    warm = classify_obr_frontend(vendor, size)
    clear_all_memos()
    cold_answer = classify_obr_frontend(vendor, size)
    assert warm == cold_answer
    assert all(probe.resource_size == size for probe in warm)


def test_huaweis_front_end_answer_is_keyed_by_size(cold):
    classify_obr_frontend("huawei", 10 * MB - 1)
    classify_obr_frontend("huawei", 10 * MB)
    table = classify._FRONTEND_MEMO
    assert ("huawei", None, 10 * MB - 1) in table
    assert ("huawei", None, 10 * MB) in table
    assert ("huawei", None) not in table
    classify_obr_frontend("akamai", 10 * MB - 1)
    assert ("akamai", None) in table


#: The e2e audit's first operation at seed 1: sizes no other test uses.
AUDIT_SEED_1 = dict(
    resource_size=9_085_044, obr_resource_size=3_863, ccfc_resource_size=28_681_398
)


def test_a_cold_audit_builds_and_parses_each_range_value_once(cold, monkeypatch):
    parses, joins = Counter(), Counter()
    parse, join = ranges._parse, grammar._join_open_ranges

    def counted_parse(value, strict_unit):
        parses[value, strict_unit] += 1
        return parse(value, strict_unit)

    def counted_join(count, leading):
        joins[count, leading] += 1
        return join(count, leading)

    monkeypatch.setattr(ranges, "_parse", counted_parse)
    monkeypatch.setattr(grammar, "_join_open_ranges", counted_join)
    report = analyze_vendor_matrix(**AUDIT_SEED_1)
    recommend(report=report, **AUDIT_SEED_1)
    # The 14th value is CloudFront's expansion of its exploited case
    # (``bytes=0-10485759``), which the SBR fetch plan reads off its
    # decision table.
    assert set(parses.values()) == {1} and len(parses) == 14
    assert set(joins.values()) == {1} and len(joins) == 6
    assert memo_stats()["range_parse"].lookups == 228
    assert memo_stats()["obr_range_value"].lookups == 26


def _count(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_a_cold_audit_checks_no_request_against_the_limits(cold, monkeypatch):
    # Byte and range-count limits are compared against sizes; the RFC
    # 7233 guard is asked directly, on a message built for it.
    checks = _count(monkeypatch, HeaderLimits, "check")
    oracle = _count(monkeypatch, bounds, "_static_probe")
    searches = _count(monkeypatch, bounds, "_sized_probe")
    report = analyze_vendor_matrix(**AUDIT_SEED_1)
    recommend(report=report, **AUDIT_SEED_1)
    assert searches and not checks and not oracle


def test_each_front_plan_builds_one_client_request(cold, monkeypatch):
    # No opaque predicate on either side: every probe is arithmetic, and
    # the only request a search builds is its plan's n = 2 one.
    built = _count(monkeypatch, HttpRequest, "__init__")
    unguarded = [
        None,
        "laziness",
        "bounded-expansion",
        "slicing",
        "encoding-passthrough",
        "encoding-normalization",
    ]
    vendors = all_vendor_names()
    for fcdn in vendors:
        for bcdn in vendors:
            if fcdn == bcdn:
                continue
            for mitigation in unguarded:
                for side, vendor in (("fcdn", fcdn), ("bcdn", bcdn)):
                    profiles = {}
                    if mitigation is not None:
                        profiles[f"{side}_profile"] = mitigated_profile(vendor, mitigation)
                    static_max_n(fcdn, bcdn, resource_size=SIZES["obr_resource_size"], **profiles)
    plans = memo_stats()["obr_front_plan"].misses
    assert plans == len(vendors) * len(unguarded)
    assert len(built) == plans


@pytest.mark.parametrize("vendor", all_vendor_names())
@pytest.mark.parametrize(
    "mitigation",
    [
        None,
        "laziness",
        "bounded-expansion",
        "overlap-rejection",
        "slicing",
        "encoding-passthrough",
        "encoding-normalization",
    ],
)
def test_forward_decisions_leave_the_shared_probe_requests_intact(vendor, mitigation):
    profile = (
        create_profile(vendor) if mitigation is None
        else mitigated_profile(vendor, mitigation)
    )
    for shape, request in classify._PROBE_REQUESTS.items():
        wire = request.serialize()
        for size in DEFAULT_PROBE_SIZES:
            ctx = VendorContext(profile.effective_config(), resource_size_hint=size)
            for _ in range(2):  # KeyCDN decides anew on a second sighting
                profile.forward_decision(request, try_parse_range_header(shape), ctx)
            assert request.serialize() == wire, (vendor, mitigation, shape)


def test_classifying_and_sbr_bounds_build_no_probe_request(cold, monkeypatch):
    cases = {
        case
        for vendor in all_vendor_names()
        for size in DEFAULT_PROBE_SIZES
        for case in profile_class(vendor).sbr_cases_at(size)
    }
    shapes = {*SINGLE_RANGE_SHAPES, *MULTI_RANGE_SHAPES}
    assert set(classify._PROBE_REQUESTS) == shapes | cases
    built = _count(monkeypatch, HttpRequest, "__init__")
    for vendor in all_vendor_names():
        classify_sbr(vendor)
        classify_obr_frontend(vendor, SIZES["obr_resource_size"])
        for mitigation in ("laziness", "bounded-expansion", "slicing"):
            profile = mitigated_profile(vendor, mitigation)
            for size in DEFAULT_PROBE_SIZES:
                profile_sbr_bound(vendor, profile, size)
    assert not built
