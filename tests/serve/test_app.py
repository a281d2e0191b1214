"""The analysis service's routing, batch semantics, and degradation."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.http.message import HttpRequest
from repro.serve.app import AnalysisService, ServeConfig
from repro.serve.breaker import CLOSED, OPEN
from repro.serve.deadline import DEADLINE_EXCEEDED

from tests.serve.conftest import FakeClock, batch_request, body_json

KB = 1024
MB = 1 << 20


def get(service, path):
    return service.handle(HttpRequest(method="GET", target=path))


class TestRouting:
    def test_healthz(self):
        service = AnalysisService()
        response = get(service, "/healthz")
        assert response.status == 200
        assert body_json(response) == {"status": "ok"}

    def test_readyz_flips_to_503_while_draining(self):
        service = AnalysisService()
        assert get(service, "/readyz").status == 200
        service.draining = True
        response = get(service, "/readyz")
        assert response.status == 503
        assert body_json(response) == {"status": "draining"}

    def test_unknown_path_is_404(self):
        assert get(AnalysisService(), "/nope").status == 404

    def test_wrong_methods_are_405(self):
        service = AnalysisService()
        assert service.handle(
            HttpRequest(method="GET", target="/v1/analyze")
        ).status == 405
        assert service.handle(
            HttpRequest(method="POST", target="/healthz")
        ).status == 405

    def test_malformed_json_is_400(self):
        service = AnalysisService()
        response = service.handle(
            HttpRequest(
                method="POST",
                target="/v1/analyze",
                headers=[("Content-Length", "5")],
                body=b"{oops",
            )
        )
        assert response.status == 400

    def test_missing_or_empty_items_are_400(self):
        service = AnalysisService()
        for payload in ({}, {"items": []}, {"items": "x"}, []):
            body = json.dumps(payload).encode()
            response = service.handle(
                HttpRequest(
                    method="POST",
                    target="/v1/analyze",
                    headers=[("Content-Length", str(len(body)))],
                    body=body,
                )
            )
            assert response.status == 400

    def test_oversized_batches_are_rejected(self):
        service = AnalysisService(ServeConfig(max_batch_items=2))
        response = service.handle(
            batch_request("/v1/analyze", [{"vendor": "fastly"}] * 3)
        )
        assert response.status == 400

    def test_oversized_body_is_413(self):
        service = AnalysisService(ServeConfig(max_body_bytes=64))
        response = service.handle(
            batch_request("/v1/analyze", [{"vendor": "fastly"}] * 8)
        )
        assert response.status == 413


class TestAnalyzeBatch:
    def test_sbr_obr_and_safe_items(self):
        service = AnalysisService()
        response = service.handle(
            batch_request(
                "/v1/analyze",
                [
                    {"vendor": "cloudflare", "size": MB},
                    {"fcdn": "cdn77", "bcdn": "akamai", "size": KB},
                    {"fcdn": "akamai", "bcdn": "cdn77", "size": KB},
                ],
            )
        )
        assert response.status == 200
        payload = body_json(response)
        kinds = [item["finding"]["kind"] for item in payload["results"]]
        assert kinds == ["sbr", "obr", "safe"]
        assert payload["partial"] is False
        assert payload["degraded"] is False
        assert payload["results"][0]["finding"]["factor_bound"] > 1000

    def test_ccfc_items_classify_and_measure_exactly(self):
        service = AnalysisService()
        response = service.handle(
            batch_request(
                "/v1/analyze",
                [
                    {
                        "vendor": "cloudflare",
                        "attack": "ccfc",
                        "size": MB,
                        "exact": True,
                    },
                    {"vendor": "tencent", "attack": "ccfc", "size": MB},
                    {"vendor": "fastly", "attack": "obr"},
                    {"fcdn": "cdn77", "bcdn": "akamai", "attack": "ccfc"},
                ],
            )
        )
        assert response.status == 200
        results = body_json(response)["results"]
        vulnerable = results[0]
        assert vulnerable["finding"]["kind"] == "ccfc"
        assert vulnerable["finding"]["data"]["encoding"] == "br"
        # The wire-level replay must land inside the (2dp-rounded)
        # closed-form bound it is reported against.
        assert vulnerable["exact_factor"] <= (
            vulnerable["finding"]["factor_bound"] + 0.01
        )
        assert vulnerable["exact_factor"] > 1000
        safe = results[1]
        assert safe["finding"]["kind"] == "safe"
        assert safe["finding"]["data"]["attack"] == "ccfc"
        assert "error" in results[2]  # a vendor item cannot ask for OBR
        assert "error" in results[3]  # a pair item cannot ask for CCFC

    def test_per_item_errors_do_not_fail_the_batch(self):
        service = AnalysisService()
        response = service.handle(
            batch_request(
                "/v1/analyze",
                [
                    {"vendor": "nosuch"},
                    {"vendor": "fastly", "size": "big"},
                    {"fcdn": "cdn77", "bcdn": "cdn77"},
                    {"vendor": "fastly", "fcdn": "cdn77", "bcdn": "akamai"},
                    {"vendor": "azure", "size": 4 * KB},
                ],
            )
        )
        assert response.status == 200
        results = body_json(response)["results"]
        assert all("error" in item for item in results[:4])
        assert results[4]["finding"]["subject"] == "azure"

    def test_exact_on_obr_items_is_measured(self):
        calls = []

        def runner(*subject_and_size):
            calls.append(subject_and_size)
            return 4321.0

        service = AnalysisService(exact_runner=runner)
        response = service.handle(
            batch_request(
                "/v1/analyze",
                [{"fcdn": "cdn77", "bcdn": "akamai", "size": KB, "exact": True}],
            )
        )
        assert response.status == 200
        payload = body_json(response)
        assert payload["results"][0]["exact_factor"] == 4321.0
        assert payload["degraded"] is False
        # The runner gets the subject's vendor names, then the size.
        assert calls == [("cdn77", "akamai", KB)]

    @pytest.mark.parametrize(
        "item",
        [
            {"vendor": "akamai", "attack": "ccfc"},
            {"fcdn": "akamai", "bcdn": "cdn77", "size": KB},
        ],
    )
    def test_exact_on_a_safe_finding_says_it_is_safe(self, item):
        calls = []
        service = AnalysisService(exact_runner=lambda *args: calls.append(args))
        response = service.handle(
            batch_request("/v1/analyze", [dict(item, exact=True)])
        )
        (result,) = body_json(response)["results"]
        assert result["finding"]["kind"] == "safe"
        assert result["exact_skipped"] == "finding is safe: no amplification to measure"
        assert calls == []  # nothing to simulate

    def test_answers_match_the_analyze_command(self):
        from repro.analysis.report import analyze_vendor_matrix

        service = AnalysisService()
        response = service.handle(
            batch_request("/v1/analyze", [{"vendor": "huawei", "size": MB}])
        )
        served = body_json(response)["results"][0]["finding"]
        direct = analyze_vendor_matrix(resource_size=MB, vendors=["huawei"])
        assert served == direct.findings[0].to_dict()


class TestUntrustedItems:
    """Item fields of the wrong JSON type are per-item errors, never a 500."""

    SERVICE = AnalysisService()

    BAD_SUBJECTS = [
        {"vendor": ["akamai"]},
        {"vendor": {"name": "akamai"}},
        {"vendor": 7},
        {"fcdn": {"a": 1}, "bcdn": "akamai"},
        {"fcdn": "cdn77", "bcdn": ["akamai"]},
        {"vendor": "akamai", "attack": ["sbr"]},
        {"vendor": "akamai", "attack": {"sbr": 1}},
        {"fcdn": "cdn77", "bcdn": "akamai", "attack": 3},
    ]

    @pytest.mark.parametrize("path", ["/v1/analyze", "/v1/recommend"])
    def test_unhashable_subjects_are_item_errors(self, path):
        service = AnalysisService()
        items = self.BAD_SUBJECTS + [{"vendor": "azure", "size": 4 * KB}]
        response = service.handle(batch_request(path, items))
        assert response.status == 200
        results = body_json(response)["results"]
        assert all(
            item["error"].startswith("invalid item: ") for item in results[:-1]
        )
        assert results[-1]["finding"]["subject"] == "azure"

    SUBJECT = 'item needs either "vendor" (SBR/CCFC) or "fcdn"+"bcdn" (OBR)'

    @pytest.mark.parametrize(
        "item, error",
        [
            ({}, SUBJECT),
            ({"size": 4 * KB}, SUBJECT),
            ({"vendor": "akamai", "fcdn": "cdn77"}, SUBJECT),
            ({"vendor": "akamai", "bcdn": "cdn77"}, SUBJECT),
            ({"fcdn": "cdn77"}, "unknown cascade 'cdn77' -> None"),
            ({"bcdn": "akamai"}, "unknown cascade None -> 'akamai'"),
            ({"fcdn": "cdn77", "bcdn": "cdn77"}, "fcdn and bcdn must differ"),
            ({"vendor": "akamai", "attack": "obr"}, 'attack "obr" needs "fcdn"+"bcdn"'),
            (
                {"fcdn": "cdn77", "bcdn": "akamai", "attack": "ccfc"},
                "attack 'ccfc' needs \"vendor\"",
            ),
            ({"vendor": "akamai", "attack": "zzz"}, "unknown attack 'zzz'"),
        ],
    )
    def test_subject_field_errors(self, item, error):
        response = self.SERVICE.handle(batch_request("/v1/analyze", [item]))
        assert body_json(response)["results"] == [{"error": f"invalid item: {error}"}]

    @pytest.mark.parametrize("path", ["/v1/analyze", "/v1/recommend"])
    @pytest.mark.parametrize("threshold", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_thresholds_are_item_errors(self, path, threshold):
        body = (
            '{"items": [{"vendor": "cloudflare", "threshold": %s}]}' % threshold
        ).encode()
        service = AnalysisService()
        response = service.handle(
            HttpRequest(
                method="POST",
                target=path,
                headers=[("Content-Length", str(len(body)))],
                body=body,
            )
        )
        assert response.status == 200
        assert body_json(response)["results"] == [
            {"error": "invalid item: threshold must be finite"}
        ]

    @settings(max_examples=60, deadline=None)
    @given(
        st.dictionaries(
            st.sampled_from(
                ["vendor", "fcdn", "bcdn", "attack", "size", "exact", "threshold"]
            ),
            st.one_of(
                st.none(),
                st.booleans(),
                st.integers(),
                st.floats(),
                st.sampled_from(["akamai", "cdn77", "sbr", "obr", "ccfc"]),
                st.lists(st.text(max_size=3), max_size=2),
                st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
            ),
            max_size=5,
        )
    )
    def test_any_item_shape_is_an_answer_or_an_item_error(self, item):
        response = self.SERVICE.handle(batch_request("/v1/recommend", [item]))
        assert response.status == 200
        (result,) = body_json(response)["results"]
        assert "finding" in result or result["error"].startswith("invalid item: ")

    def test_only_the_requested_family_is_analyzed(self, monkeypatch):
        import repro.families.ccfc as ccfc

        def refuse(*args, **kwargs):
            raise AssertionError("CCFC analyzed for an SBR item")

        monkeypatch.setattr(ccfc, "classify_ccfc", refuse)
        service = AnalysisService()
        response = service.handle(
            batch_request("/v1/analyze", [{"vendor": "cloudflare", "size": MB}])
        )
        assert body_json(response)["results"][0]["finding"]["kind"] == "sbr"

    def test_an_injected_exact_runner_answers_every_exact_family(self):
        calls = []

        def runner(*subject_and_size):
            calls.append(subject_and_size)
            return 2.0

        service = AnalysisService(exact_runner=runner)
        response = service.handle(
            batch_request(
                "/v1/analyze",
                [
                    {"vendor": "cloudflare", "size": KB, "exact": True},
                    {"vendor": "cloudflare", "attack": "ccfc", "size": KB,
                     "exact": True},
                    {"fcdn": "cloudflare", "bcdn": "akamai", "size": KB,
                     "exact": True},
                ],
            )
        )
        results = body_json(response)["results"]
        assert [item["exact_factor"] for item in results] == [2.0, 2.0, 2.0]
        assert calls == [
            ("cloudflare", KB),
            ("cloudflare", KB),
            ("cloudflare", "akamai", KB),
        ]


class TestRecommendBatch:
    def test_vulnerable_item_gets_a_recommendation(self):
        service = AnalysisService()
        response = service.handle(
            batch_request("/v1/recommend", [{"vendor": "cloudflare", "size": MB}])
        )
        assert response.status == 200
        item = body_json(response)["results"][0]
        assert item["recommendation"]["chosen"] is not None
        assert item["resolved"] is True
        residual = item["recommendation"]["chosen"]["residual_factor"]
        assert residual < item["finding"]["factor_bound"]

    def test_safe_item_needs_no_recommendation(self):
        service = AnalysisService()
        response = service.handle(
            batch_request(
                "/v1/recommend", [{"fcdn": "akamai", "bcdn": "cdn77", "size": KB}]
            )
        )
        item = body_json(response)["results"][0]
        assert item["finding"]["kind"] == "safe"
        assert item["recommendation"] is None
        assert item["resolved"] is True


class TestDeadline:
    def test_expiry_mid_batch_returns_partial_results(self):
        clock = FakeClock(tick=1.0)
        service = AnalysisService(clock=clock)
        response = service.handle(
            batch_request(
                "/v1/analyze",
                [{"vendor": "fastly", "size": KB}] * 4,
                headers=[("X-Deadline-Ms", "2500")],
            )
        )
        assert response.status == 200
        payload = body_json(response)
        assert payload["partial"] is True
        assert payload["deadline_ms"] == 2500
        markers = [item for item in payload["results"] if "error" in item]
        answered = [item for item in payload["results"] if "finding" in item]
        assert len(answered) == 2
        assert len(markers) == 2
        assert all(item["error"] == DEADLINE_EXCEEDED for item in markers)
        # The deadline outcome is what the request counter records.
        counter = service.metrics.counter("repro_serve_requests_total")
        assert counter.value(endpoint="analyze", outcome="deadline") == 1


class TestBreakerDegradation:
    def exact_item(self, size=256 * KB):
        return {"vendor": "cloudflare", "size": size, "exact": True}

    def test_failures_open_the_breaker_and_probes_recover(self):
        clock = FakeClock()
        calls = {"n": 0}
        failing = {"on": True}

        def runner(vendor, size):
            calls["n"] += 1
            if failing["on"]:
                raise RuntimeError("simulated exact-sim outage")
            return 123.0

        service = AnalysisService(
            ServeConfig(
                breaker_failure_threshold=2,
                breaker_reset_timeout_s=5.0,
                breaker_half_open_probes=1,
            ),
            clock=clock,
            exact_runner=runner,
        )

        def run():
            response = service.handle(
                batch_request("/v1/analyze", [self.exact_item()])
            )
            return body_json(response)

        first = run()
        assert first["degraded"] is True
        assert "exact-sim-failed" in first["results"][0]["degraded_reason"]
        assert "finding" in first["results"][0]  # bounds still answered
        second = run()
        assert service.breaker.state == OPEN

        third = run()  # breaker refuses without calling the runner
        assert calls["n"] == 2
        assert third["results"][0]["degraded_reason"] == "breaker-open"

        failing["on"] = False
        clock.advance(5.0)
        fourth = run()  # half-open probe succeeds and closes the breaker
        assert fourth["degraded"] is False
        assert fourth["results"][0]["exact_factor"] == 123.0
        assert service.breaker.state == CLOSED
        counter = service.metrics.counter("repro_serve_requests_total")
        assert counter.value(endpoint="analyze", outcome="degraded") == 3

    def test_slow_exact_sims_count_as_breaker_failures(self):
        clock = FakeClock()

        def slow_runner(vendor, size):
            clock.advance(2.0)  # simulate a 2 s simulation
            return 50.0

        service = AnalysisService(
            ServeConfig(exact_timeout_s=1.0, breaker_failure_threshold=2),
            clock=clock,
            exact_runner=slow_runner,
        )
        for _ in range(2):
            response = service.handle(
                batch_request(
                    "/v1/analyze",
                    [self.exact_item()],
                    headers=[("X-Deadline-Ms", "20000")],
                )
            )
            # The answer itself is still served (it did complete).
            assert "exact_factor" in body_json(response)["results"][0]
        assert service.breaker.state == OPEN


class TestSharedMemo:
    def test_findings_are_cached_across_requests(self):
        service = AnalysisService()
        request = batch_request("/v1/analyze", [{"vendor": "fastly", "size": MB}])
        service.handle(request)
        table = service.memo.table("findings")
        assert table.stats.misses == 1
        service.handle(batch_request("/v1/analyze", [{"vendor": "fastly", "size": MB}]))
        assert table.stats.hits == 1

    def test_memo_stays_bounded_under_size_churn(self):
        service = AnalysisService(ServeConfig(memo_entries=6))  # 2 per table
        items = [{"vendor": "fastly", "size": KB * (i + 1)} for i in range(5)]
        service.handle(batch_request("/v1/analyze", items))
        table = service.memo.table("findings")
        assert len(table) == 2
        assert table.stats.evictions == 3
        assert service.memo.entries() <= 6


class TestMetricsEndpoint:
    def test_exposition_carries_the_serve_families(self):
        service = AnalysisService()
        service.handle(batch_request("/v1/analyze", [{"vendor": "fastly"}]))
        response = get(service, "/metrics")
        assert response.status == 200
        text = response.body.materialize().decode()
        for family in (
            "repro_serve_requests_total",
            "repro_serve_request_seconds",
            "repro_serve_queue_depth",
            "repro_serve_inflight",
            "repro_serve_breaker_state",
            "repro_serve_memo_entries",
            "repro_memo_lookups_total",
        ):
            assert family in text
        assert 'endpoint="analyze",outcome="ok"} 1' in text
