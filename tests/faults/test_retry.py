"""Vendor retry policies, FlakyOrigin, and the CDN retry loop."""

import pytest

from repro.faults import (
    DEFAULT_RETRY_POLICY,
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultRule,
    RetryPolicy,
    SITE_CDN_ORIGIN,
    VENDOR_RETRY_POLICIES,
    retry_policy_for,
    use_faults,
)
from repro.handler import HttpHandler
from repro.http.headers import Headers
from repro.http.message import HttpRequest, HttpResponse
from repro.http.status import StatusCode
from repro.netsim.tap import CDN_ORIGIN

from tests.conftest import FlakyOrigin, get, make_node, make_origin

MB = 1 << 20


class FailOnce(HttpHandler):
    """Fails exactly the first request with a 503, then delegates."""

    def __init__(self, inner: HttpHandler) -> None:
        self.inner = inner
        self.calls = 0

    def handle(self, request: HttpRequest) -> HttpResponse:
        self.calls += 1
        if self.calls == 1:
            return HttpResponse(
                int(StatusCode.SERVICE_UNAVAILABLE),
                headers=Headers([("Content-Length", "0")]),
            )
        return self.inner.handle(request)


class TestRetryPolicy:
    def test_should_retry_on_5xx(self):
        policy = RetryPolicy()
        assert policy.should_retry(503)
        assert policy.should_retry(500)
        assert not policy.should_retry(404)
        assert not policy.should_retry(206)

    def test_should_retry_on_truncation(self):
        assert RetryPolicy().should_retry(206, truncated=True)
        assert not RetryPolicy(retry_on_truncation=False).should_retry(
            206, truncated=True
        )

    def test_retry_on_5xx_can_be_disabled(self):
        assert not RetryPolicy(retry_on_5xx=False).should_retry(503)

    def test_backoff_schedule_doubles_and_caps(self):
        policy = RetryPolicy(
            base_delay_s=1.0, multiplier=2.0, max_delay_s=3.0, jitter_fraction=0.0
        )
        assert policy.backoff_s(1) == 1.0
        assert policy.backoff_s(2) == 2.0
        assert policy.backoff_s(3) == 3.0  # capped, not 4.0
        assert policy.backoff_s(4) == 3.0

    def test_backoff_jitter_spread(self):
        policy = RetryPolicy(base_delay_s=1.0, jitter_fraction=0.25)
        assert policy.backoff_s(1, unit=0.0) == pytest.approx(0.75)
        assert policy.backoff_s(1, unit=0.5) == pytest.approx(1.0)
        assert policy.backoff_s(1, unit=0.999) == pytest.approx(1.25, rel=0.01)

    def test_backoff_attempts_are_one_based(self):
        with pytest.raises(ValueError):
            RetryPolicy().backoff_s(0)

    def test_vendor_table(self):
        assert retry_policy_for("akamai").max_attempts == 4
        assert not retry_policy_for("azure").retry_on_truncation
        assert retry_policy_for("unknown-vendor") is DEFAULT_RETRY_POLICY
        for policy in VENDOR_RETRY_POLICIES.values():
            assert policy.max_attempts >= 1


class TestFlakyOrigin:
    def test_fails_every_period_th_request(self):
        flaky = FlakyOrigin(make_origin(1000), period=2)
        first = get(flaky, range_value="bytes=0-0")
        second = get(flaky, range_value="bytes=0-0")
        assert first.status == StatusCode.PARTIAL_CONTENT
        assert int(second.status) == int(StatusCode.SERVICE_UNAVAILABLE)
        assert second.headers.get("Retry-After") == "1"
        assert flaky.requests_seen == 2

    def test_retry_after_header_is_optional(self):
        flaky = FlakyOrigin(make_origin(1000), period=1, retry_after=None)
        response = get(flaky, range_value="bytes=0-0")
        assert response.headers.get("Retry-After") is None

    def test_period_validation(self):
        with pytest.raises(ValueError):
            FlakyOrigin(make_origin(1000), period=0)


class TestCdnRetryLoop:
    def test_no_injector_and_no_policy_means_no_retry(self):
        """The clean pipeline never re-fetches: vendor policies engage
        only under an installed fault injector (or an explicit policy)."""
        flaky = FailOnce(make_origin(1000))
        node = make_node("gcore", make_origin(1000))
        node.upstream = flaky
        response = get(node, range_value="bytes=0-0")
        assert int(response.status) == int(StatusCode.SERVICE_UNAVAILABLE)
        assert flaky.calls == 1

    def test_explicit_policy_recovers_from_one_failure(self):
        origin = make_origin(1000)
        node = make_node(
            "gcore", origin, retry_policy=RetryPolicy(max_attempts=2)
        )
        node.upstream = FailOnce(origin)
        response = get(node, range_value="bytes=0-0")
        assert response.status == StatusCode.PARTIAL_CONTENT

    def test_origin_error_exhaustion_spends_the_full_budget(self):
        """Rate-1.0 origin errors: every attempt fails, the CDN spends
        exactly max_attempts origin requests, then relays the error."""
        plan = FaultPlan(
            seed=1, rules=(FaultRule(FaultKind.ORIGIN_ERROR, rate=1.0),)
        )
        origin = make_origin(1000)
        node = make_node("gcore", origin)
        injector = FaultInjector(plan)
        with use_faults(injector):
            response = get(node, range_value="bytes=0-0")
        budget = retry_policy_for("gcore").max_attempts
        assert int(response.status) == int(StatusCode.SERVICE_UNAVAILABLE)
        assert origin.stats.requests == budget
        assert injector.stats.retries == budget - 1
        assert injector.stats.exhausted_fetches == 1
        assert injector.stats.backoff_s > 0.0

    def test_truncated_transfer_is_retried(self):
        plan = FaultPlan(
            seed=1,
            rules=(
                FaultRule(
                    FaultKind.TRUNCATE,
                    rate=1.0,
                    site=SITE_CDN_ORIGIN,
                    truncate_fraction=0.5,
                ),
            ),
        )
        origin = make_origin(1000)
        node = make_node("gcore", origin)
        with use_faults(FaultInjector(plan)):
            get(node, range_value="bytes=0-0")
        assert origin.stats.requests == retry_policy_for("gcore").max_attempts

    def test_azure_intentional_truncation_is_not_a_failure(self):
        """Azure's capped window fetches are by design (payload_cap set);
        with faults armed but quiet, it must not burn retries on them."""
        origin = make_origin(size=25 * MB, path="/big.bin")
        node = make_node("azure", origin)
        injector = FaultInjector(FaultPlan.quiet(7))
        with use_faults(injector):
            response = get(node, target="/big.bin", range_value="bytes=0-0")
        assert response.status == StatusCode.PARTIAL_CONTENT
        assert injector.stats.retries == 0
        assert injector.stats.exhausted_fetches == 0
        assert origin.stats.requests == 1  # one cut fetch, never re-shipped
        stats = node.ledger.segment_stats(CDN_ORIGIN)
        assert stats.response_bytes_delivered < stats.response_bytes_sent

    def test_faulted_run_is_deterministic(self):
        plan = FaultPlan.default(99)

        def statuses():
            origin = make_origin(1000)
            node = make_node("gcore", origin)
            injector = FaultInjector(plan)
            out = []
            with use_faults(injector):
                for _ in range(30):
                    out.append(int(get(node, range_value="bytes=0-0").status))
            return out, injector.stats.retries, injector.stats.injected

        assert statuses() == statuses()
