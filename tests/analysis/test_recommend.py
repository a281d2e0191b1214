"""Tests for the defense recommendation engine (``repro recommend``).

Covers the engine's load-bearing promises:

* mitigation candidates are tried cheapest-first and the chosen option
  is the *first* sufficient one, with every cheaper failure kept in the
  rejected list;
* residual bounds never exceed the clean bounds they mitigate;
* residual bounds stay sound dynamically — a simulated attack under the
  mitigated profile never exceeds the residual bound (property-tested
  over sizes, plus the full quick verification grid);
* the JSON report shape the CI gate consumes is stable;
* every survey vendor and cascade flagged by the static analyzer
  receives a recommendation, and all of them resolve below the default
  threshold.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.bounds import profile_sbr_bound, sbr_bound
from repro.analysis.families import FAMILIES_BY_NAME
from repro.analysis.recommend import (
    COST_CONFIG_ONLY,
    DEFAULT_THRESHOLD,
    MitigationOption,
    MitigationSpec,
    _pick,
    mitigation_profile_factory,
    recommend,
    render_recommendations_table,
    verify_recommendations,
)
from repro.analysis.report import analyze_vendor_matrix
from repro.cdn.vendors.matrix import sbr_vulnerable_vendors
from repro.cli import main
from repro.core.sbr import SbrAttack
from repro.errors import ConfigurationError
from repro.obs.metrics import MetricsRegistry, use_metrics

MB = 1 << 20
KB = 1 << 10

SEVERITY_ORDER = ("critical", "high", "medium", "low", "info")


@pytest.fixture(scope="module")
def report():
    """One full recommendation pass, shared across the module."""
    return recommend()


def _option(rank, residual, threshold=DEFAULT_THRESHOLD):
    spec = MitigationSpec(f"m{rank}", "cdn", COST_CONFIG_ONLY, rank, "synthetic")
    return MitigationOption(
        spec=spec,
        residual_factor=residual,
        faulted_residual_factor=None,
        threshold=threshold,
    )


class TestCostOrdering:
    def test_candidate_lists_are_rank_sorted_and_cost_monotone(self):
        for name in ("sbr", "obr", "ccfc"):
            candidates = FAMILIES_BY_NAME[name].mitigations
            ranks = [spec.rank for spec in candidates]
            assert ranks == sorted(ranks) == list(range(len(candidates)))
            costs = [spec.cost for spec in candidates]
            # Rank order must never contradict the cost classes.
            assert costs == sorted(costs)

    def test_pick_returns_first_sufficient(self):
        options = [_option(0, 500.0), _option(1, 3.0), _option(2, 1.5)]
        chosen, rejected = _pick(options)
        assert chosen is options[1]
        assert rejected == (options[0],)

    def test_pick_with_no_sufficient_option(self):
        options = [_option(0, 100.0), _option(1, 50.0)]
        chosen, rejected = _pick(options)
        assert chosen is None
        assert rejected == tuple(options)

    def test_rejected_options_are_cheaper_and_insufficient(self, report):
        for recommendation in report.recommendations:
            assert recommendation.chosen is not None
            for option in recommendation.rejected:
                assert not option.sufficient
                assert option.spec.rank < recommendation.chosen.spec.rank


class TestResidualBounds:
    def test_chosen_residual_below_clean_bound_for_every_finding(self, report):
        for recommendation in report.recommendations:
            chosen = recommendation.chosen
            assert chosen is not None, recommendation.subject
            assert chosen.residual_factor < recommendation.finding.factor_bound, (
                f"{recommendation.subject}: residual {chosen.residual_factor:.1f} "
                f"not below clean bound {recommendation.finding.factor_bound:.1f}"
            )

    def test_laziness_residual_below_clean_bound_for_every_vendor(self):
        for vendor in sbr_vulnerable_vendors():
            factory = mitigation_profile_factory(vendor, "laziness")
            residual = profile_sbr_bound(vendor, factory, 10 * MB).factor
            clean = sbr_bound(vendor, 10 * MB).factor
            assert residual < clean
            assert residual < DEFAULT_THRESHOLD

    def test_threshold_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            recommend(threshold=0.0)
        with pytest.raises(ConfigurationError):
            recommend(threshold=-1.0)

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf")])
    def test_threshold_must_be_finite(self, threshold):
        # NaN would make every mitigation insufficient, infinity any
        # mitigation sufficient.
        with pytest.raises(ConfigurationError):
            recommend(threshold=threshold)


class TestSimulationNeverExceedsResidual:
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        vendor=st.sampled_from(sbr_vulnerable_vendors()),
        size=st.integers(min_value=256 * KB, max_value=2 * MB),
        mitigation=st.sampled_from(["laziness", "bounded-expansion"]),
    )
    def test_random_sizes(self, vendor, size, mitigation):
        factory = mitigation_profile_factory(vendor, mitigation)
        bound = profile_sbr_bound(vendor, factory, size)
        simulated = SbrAttack(
            vendor, resource_size=size, profile_factory=factory
        ).run()
        assert simulated.amplification <= bound.factor, (
            f"{vendor}+{mitigation} at {size}: simulated "
            f"{simulated.amplification:.2f} exceeds residual bound "
            f"{bound.factor:.2f}"
        )

    def test_full_quick_verification_grid(self, report):
        checks = verify_recommendations(report, sizes=(1 * MB,))
        assert checks, "verification grid produced no checks"
        for check in checks:
            assert check.ok, (
                f"{check.subject} under {check.mitigation}: simulated "
                f"{check.simulated_factor:.2f} exceeds residual bound "
                f"{check.residual_bound:.2f}"
            )


class TestJsonShape:
    def test_cli_json_golden_shape(self, capsys):
        assert main(["recommend", "--format", "json"]) == 0
        decoded = json.loads(capsys.readouterr().out)
        assert set(decoded) == {
            "threshold",
            "resource_size",
            "obr_resource_size",
            "ccfc_resource_size",
            "with_retries",
            "all_resolved",
            "recommendations",
        }
        assert decoded["threshold"] == DEFAULT_THRESHOLD
        assert decoded["resource_size"] == 10 * MB
        assert decoded["all_resolved"] is True
        for entry in decoded["recommendations"]:
            assert set(entry) == {
                "kind",
                "subject",
                "severity",
                "mechanism",
                "clean_factor",
                "chosen",
                "rejected",
            }
            chosen = entry["chosen"]
            assert set(chosen) == {
                "mitigation",
                "target",
                "label",
                "cost",
                "description",
                "residual_factor",
                "residual_severity",
                "sufficient",
                "faulted_residual_factor",
            }
            assert chosen["sufficient"] is True
            assert chosen["residual_severity"] in ("low", "info")
            for option in entry["rejected"]:
                assert option["sufficient"] is False

    def test_json_keeps_severity_ranking(self, capsys):
        assert main(["recommend", "--format", "json"]) == 0
        decoded = json.loads(capsys.readouterr().out)
        indices = [
            SEVERITY_ORDER.index(entry["severity"])
            for entry in decoded["recommendations"]
        ]
        assert indices == sorted(indices)

    def test_with_retries_adds_faulted_residuals(self, capsys):
        assert main(["recommend", "--format", "json", "--with-retries"]) == 0
        decoded = json.loads(capsys.readouterr().out)
        sbr = [e for e in decoded["recommendations"] if e["kind"] == "sbr"]
        for entry in sbr:
            faulted = entry["chosen"]["faulted_residual_factor"]
            assert faulted is not None
            # Retries only add traffic on top of the clean residual.
            assert faulted >= entry["chosen"]["residual_factor"]


class TestCliTable:
    def test_table_lists_every_finding_and_summary(self, capsys):
        assert main(["recommend"]) == 0
        output = capsys.readouterr().out
        assert "Mitigation" in output and "Residual" in output
        assert "13 SBR, 11 OBR, and 7 CCFC finding(s)" in output
        assert "laziness@cdn" in output
        assert "overlap-rejection@bcdn" in output
        assert "encoding-passthrough@cdn" in output

    def test_unreachable_threshold_exits_one(self, capsys):
        assert main(["recommend", "--threshold", "1.0"]) == 1
        output = capsys.readouterr().out
        assert "UNRESOLVED" in output

    def test_render_table_flags_unresolved_as_none(self):
        tight = recommend(threshold=1.0)
        table = render_recommendations_table(tight)
        assert "NONE" in table


class TestSurveyCoverage:
    """Repo-level guard: the engine covers the full survey."""

    def test_every_vulnerable_vendor_gets_a_recommendation(self, report):
        recommended = {r.subject for r in report.by_kind("sbr")}
        assert recommended == set(sbr_vulnerable_vendors())

    def test_every_vulnerable_cascade_gets_a_recommendation(self, report):
        analysis = analyze_vendor_matrix()
        expected = {
            finding.subject
            for finding in analysis.vulnerable
            if finding.kind == "obr"
        }
        recommended = {r.subject for r in report.by_kind("obr")}
        assert recommended == expected
        assert len(recommended) == 11

    def test_all_findings_resolve_below_default_threshold(self, report):
        assert report.all_resolved
        for recommendation in report.recommendations:
            assert recommendation.chosen.residual_factor < DEFAULT_THRESHOLD


class TestMetrics:
    def test_recommendation_metrics_are_recorded(self):
        registry = MetricsRegistry()
        analysis = analyze_vendor_matrix(vendors=("gcore",))
        with use_metrics(registry):
            recommend(report=analysis)
        snapshot = registry.snapshot()
        assert "repro_recommendations_total" in snapshot
        assert "repro_residual_factor" in snapshot
        samples = snapshot["repro_recommendations_total"]["samples"]
        assert samples, "no recommendation counter samples recorded"
        assert all(sample["labels"]["kind"] == "sbr" for sample in samples)
