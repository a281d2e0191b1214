"""The static audit reads each pure fact once.

A cold ``analyze_vendor_matrix`` + ``recommend`` asks each OBR front end
for its multi-range decisions once per ``(vendor, size, config)`` — not
once per back end — and certifies every max-n search, the RFC 7233
guarded ones included, with two static probes.  SBR classifications,
which probe fixed size regimes, are read once per ``(vendor, config,
factory)`` whatever the size.  The memo changes only how often a
decision is read, never an answer.
"""

import pytest

from repro.analysis import bounds, classify
from repro.analysis.bounds import static_max_n
from repro.analysis.classify import MULTI_RANGE_SHAPES, classify_sbr
from repro.analysis.recommend import recommend
from repro.analysis.report import analyze_vendor_matrix
from repro.cdn.vendors import all_vendor_names, create_profile
from repro.defense.mitigations import with_laziness
from repro.families.base import mitigation_profile_factory
from repro.obs.memo import clear_all_memos, memo_stats

SIZES = dict(resource_size=3_000_001, obr_resource_size=777, ccfc_resource_size=2_000_003)


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


def test_cold_audit_takes_two_static_probes_per_search(cold, monkeypatch):
    probes = _Counter(bounds._static_probe, lambda *args, **kwargs: True)
    monkeypatch.setattr(bounds, "_static_probe", probes)
    report = analyze_vendor_matrix(**SIZES)
    recommend(report=report, **SIZES)
    # 11 registry cascades and 33 (cascade, mitigation) pairs, two each.
    assert probes.calls == 88


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


def test_mitigation_factories_are_memo_keys(cold):
    factory = mitigation_profile_factory("akamai", "laziness")
    assert factory == mitigation_profile_factory("akamai", "laziness")
    assert hash(factory) == hash(mitigation_profile_factory("akamai", "laziness"))
    assert factory != mitigation_profile_factory("akamai", "slicing")
    assert factory != mitigation_profile_factory("fastly", "laziness")
    assert factory() is not factory()

    mitigated = classify_sbr("akamai", profile_factory=factory)
    again = classify_sbr("akamai", profile_factory=mitigation_profile_factory("akamai", "laziness"))
    assert again is mitigated and not mitigated.vulnerable
    stats = memo_stats()["classify_sbr"]
    assert (stats.misses, stats.hits) == (1, 1)


def test_ad_hoc_factories_stay_uncached(cold):
    def factory():
        return with_laziness(create_profile("akamai"))

    classify_sbr("akamai", profile_factory=factory)
    static_max_n("cdn77", "akamai", bcdn_profile=factory)
    assert memo_stats()["classify_sbr"].lookups == 0
    assert memo_stats()["static_max_n"].lookups == 0
