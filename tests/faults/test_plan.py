"""The fault plan model and the deterministic injection engine."""

import pytest

from repro.faults.plan import (
    DELIVERY_FAULT_KINDS,
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultPlanError,
    FaultRule,
    SITE_CDN_ORIGIN,
    SITE_ORIGIN,
    current_faults,
    use_faults,
)
from repro.netsim import tap


class TestSiteConstants:
    def test_mirror_tap_segment_names(self):
        """plan.py cannot import tap (cycle); the literals must track it."""
        assert SITE_CDN_ORIGIN == tap.CDN_ORIGIN
        assert SITE_ORIGIN == "origin"


class TestFaultRuleValidation:
    def test_rate_out_of_range(self):
        with pytest.raises(FaultPlanError):
            FaultRule(FaultKind.ORIGIN_ERROR, rate=1.5)
        with pytest.raises(FaultPlanError):
            FaultRule(FaultKind.ORIGIN_ERROR, rate=-0.1)

    def test_burst_must_be_positive(self):
        with pytest.raises(FaultPlanError):
            FaultRule(FaultKind.ORIGIN_ERROR, rate=0.5, burst=0)

    def test_truncate_fraction_bounds(self):
        with pytest.raises(FaultPlanError):
            FaultRule(
                FaultKind.TRUNCATE,
                rate=0.5,
                site=SITE_CDN_ORIGIN,
                truncate_fraction=0.0,
            )

    def test_origin_error_needs_5xx(self):
        with pytest.raises(FaultPlanError):
            FaultRule(FaultKind.ORIGIN_ERROR, rate=0.5, status=404)

    def test_origin_error_needs_known_status(self):
        with pytest.raises(FaultPlanError):
            FaultRule(FaultKind.ORIGIN_ERROR, rate=0.5, status=599)

    def test_origin_error_only_at_origin_site(self):
        with pytest.raises(FaultPlanError):
            FaultRule(FaultKind.ORIGIN_ERROR, rate=0.5, site=SITE_CDN_ORIGIN)

    def test_delivery_kinds_not_at_origin_site(self):
        for kind in DELIVERY_FAULT_KINDS:
            with pytest.raises(FaultPlanError):
                FaultRule(kind, rate=0.5, site=SITE_ORIGIN)

    def test_is_delivery(self):
        assert not FaultRule(FaultKind.ORIGIN_ERROR, rate=0.5).is_delivery
        assert FaultRule(
            FaultKind.RESET, rate=0.5, site=SITE_CDN_ORIGIN
        ).is_delivery


class TestFaultPlan:
    def test_negative_seed_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultPlan(seed=-1, rules=())

    def test_quiet_plan_never_fires(self):
        injector = FaultInjector(FaultPlan.quiet(3))
        for _ in range(50):
            assert injector.origin_fault("/x") is None
            assert injector.delivery_fault(SITE_CDN_ORIGIN) is None
        assert injector.stats.total_injected == 0

    def test_default_plan_has_all_four_kinds(self):
        kinds = {rule.kind for rule in FaultPlan.default(1).rules}
        assert kinds == set(FaultKind)


def _origin_decisions(injector, n=200):
    return [injector.origin_fault("/r") is not None for _ in range(n)]


class TestDeterminism:
    def test_same_seed_same_decision_stream(self):
        plan = FaultPlan.default(42)
        a = _origin_decisions(FaultInjector(plan))
        b = _origin_decisions(FaultInjector(plan))
        assert a == b

    def test_different_seeds_diverge(self):
        a = _origin_decisions(FaultInjector(FaultPlan.default(1)))
        b = _origin_decisions(FaultInjector(FaultPlan.default(2)))
        assert a != b

    def test_jitter_stream_does_not_perturb_faults(self):
        plan = FaultPlan.default(42)
        plain = FaultInjector(plan)
        interleaved = FaultInjector(plan)
        a = []
        b = []
        for _ in range(100):
            a.append(plain.origin_fault("/r") is not None)
            interleaved.jitter_unit()
            b.append(interleaved.origin_fault("/r") is not None)
        assert a == b

    def test_jitter_units_in_range_and_deterministic(self):
        plan = FaultPlan.default(9)
        a = [FaultInjector(plan).jitter_unit() for _ in range(1)]
        injector = FaultInjector(plan)
        draws = [injector.jitter_unit() for _ in range(20)]
        assert all(0.0 <= unit < 1.0 for unit in draws)
        assert draws[0] == a[0]


class TestRates:
    def test_rate_one_always_fires(self):
        plan = FaultPlan(seed=1, rules=(FaultRule(FaultKind.ORIGIN_ERROR, rate=1.0),))
        injector = FaultInjector(plan)
        assert all(_origin_decisions(injector, 50))

    def test_rate_zero_never_fires(self):
        plan = FaultPlan(seed=1, rules=(FaultRule(FaultKind.ORIGIN_ERROR, rate=0.0),))
        injector = FaultInjector(plan)
        assert not any(_origin_decisions(injector, 50))

    def test_moderate_rate_roughly_matches(self):
        plan = FaultPlan(seed=7, rules=(FaultRule(FaultKind.ORIGIN_ERROR, rate=0.3),))
        fired = sum(_origin_decisions(FaultInjector(plan), 1000))
        assert 200 < fired < 400


class TestBurst:
    def test_burst_extends_each_firing(self):
        """With burst=3, firings come in runs of (at least) three."""
        plan = FaultPlan(
            seed=5,
            rules=(FaultRule(FaultKind.ORIGIN_ERROR, rate=0.1, burst=3),),
        )
        decisions = _origin_decisions(FaultInjector(plan), 500)
        runs = []
        current = 0
        for fired in decisions:
            if fired:
                current += 1
            elif current:
                runs.append(current)
                current = 0
        if current:
            runs.append(current)
        assert runs, "rate 0.1 over 500 draws should fire at least once"
        assert all(run >= 3 for run in runs)


class TestStatsAndContext:
    def test_injected_counts_keyed_by_site_and_kind(self):
        plan = FaultPlan(seed=1, rules=(FaultRule(FaultKind.ORIGIN_ERROR, rate=1.0),))
        injector = FaultInjector(plan)
        injector.origin_fault("/a")
        injector.origin_fault("/b")
        assert injector.stats.injected == {"origin:origin-error": 2}
        assert injector.stats.total_injected == 2
        assert injector.stats.opportunities == 2

    def test_delivery_opportunity_counted_once_per_segment_match(self):
        plan = FaultPlan(
            seed=1,
            rules=(
                FaultRule(FaultKind.STALL, rate=0.0, site=SITE_CDN_ORIGIN),
                FaultRule(FaultKind.RESET, rate=0.0, site=SITE_CDN_ORIGIN),
            ),
        )
        injector = FaultInjector(plan)
        injector.delivery_fault(SITE_CDN_ORIGIN)
        assert injector.stats.opportunities == 1
        injector.delivery_fault("client-cdn")  # no rule matches
        assert injector.stats.opportunities == 1

    def test_use_faults_installs_and_restores(self):
        assert current_faults() is None
        injector = FaultInjector(FaultPlan.quiet(1))
        with use_faults(injector) as installed:
            assert installed is injector
            assert current_faults() is injector
        assert current_faults() is None
