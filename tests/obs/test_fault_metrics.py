"""Fault and retry instrumentation flowing into the metrics registry."""

from repro.faults.plan import FaultInjector, FaultKind, FaultPlan, FaultRule, use_faults
from repro.obs.metrics import (
    FAULTS_INJECTED,
    FETCH_ATTEMPTS,
    FETCH_RETRIES,
    RETRY_BACKOFF_SECONDS,
    MetricsRegistry,
    use_metrics,
)

from tests.conftest import get, make_node, make_origin


class TestRecordHelpers:
    def test_record_fault_labels(self):
        registry = MetricsRegistry()
        registry.record_fault("origin", "origin-error")
        registry.record_fault("origin", "origin-error")
        registry.record_fault("cdn-origin", "reset")
        counter = registry.counter(FAULTS_INJECTED)
        assert counter.value(site="origin", kind="origin-error") == 2
        assert counter.value(site="cdn-origin", kind="reset") == 1

    def test_record_retry_accrues_backoff(self):
        registry = MetricsRegistry()
        registry.record_retry("gcore", 0.5)
        registry.record_retry("gcore", 1.0)
        assert registry.counter(FETCH_RETRIES).value(vendor="gcore") == 2
        assert registry.counter(RETRY_BACKOFF_SECONDS).value(
            vendor="gcore"
        ) == 1.5

    def test_record_fetch_attempts_split_by_outcome(self):
        registry = MetricsRegistry()
        registry.record_fetch_attempts("gcore", 1, ok=True)
        registry.record_fetch_attempts("gcore", 3, ok=False)
        histogram = registry.histogram(FETCH_ATTEMPTS)
        assert histogram.count(vendor="gcore", outcome="ok") == 1
        assert histogram.count(vendor="gcore", outcome="exhausted") == 1
        assert histogram.sum(vendor="gcore", outcome="exhausted") == 3


class TestPipelineEmission:
    def test_faulted_pipeline_emits_fault_and_retry_series(self):
        plan = FaultPlan(
            seed=1, rules=(FaultRule(FaultKind.ORIGIN_ERROR, rate=1.0),)
        )
        registry = MetricsRegistry()
        node = make_node("gcore", make_origin(1000))
        with use_metrics(registry), use_faults(FaultInjector(plan)):
            get(node, range_value="bytes=0-0")
        assert registry.counter(FAULTS_INJECTED).value(
            site="origin", kind="origin-error"
        ) == 3  # gcore's budget: three attempts, all faulted
        assert registry.counter(FETCH_RETRIES).value(vendor="gcore") == 2
        assert registry.counter(RETRY_BACKOFF_SECONDS).value(vendor="gcore") > 0
        histogram = registry.histogram(FETCH_ATTEMPTS)
        assert histogram.count(vendor="gcore", outcome="exhausted") == 1

    def test_no_metrics_context_is_harmless(self):
        plan = FaultPlan(
            seed=1, rules=(FaultRule(FaultKind.ORIGIN_ERROR, rate=1.0),)
        )
        injector = FaultInjector(plan)
        node = make_node("gcore", make_origin(1000))
        with use_faults(injector):
            get(node, range_value="bytes=0-0")
        assert injector.stats.total_injected == 3  # stats still tally
