"""Defense recommendation engine (paper §VI-C, applied per finding).

The paper closes with implementation advice — switch to Laziness, bound
expansion to a few KB, enforce RFC 7233 §6.1 against overlapping ranges
— but leaves "which fix, where" to the reader.  This module turns the
static findings of :func:`~repro.analysis.report.analyze_vendor_matrix`
into *actionable, verified* recommendations:

1. for each vulnerable finding, enumerate its family's applicable
   mitigations (the :class:`~repro.analysis.families.AttackFamily`
   record's table over :mod:`repro.defense.mitigations`), ordered by
   deployment cost (config-only change < header guard < fetch-flow
   change);
2. wrap the vendor in the corresponding mitigated profile and re-run
   the family's closed-form bound under the wrapper (its residual);
3. recommend the *cheapest* mitigation whose residual worst-case factor
   falls below the threshold (default: the "low" severity boundary),
   keeping the rejected cheaper options — with their residual factors —
   in the report so the cost/benefit trade-off stays visible.

Every recommendation can be cross-validated dynamically with
:func:`verify_recommendations`: a quick simulation grid runs the actual
attack against the mitigated profile and checks the measured factor
never exceeds the residual bound (the same soundness contract the clean
bounds carry).

Retry-aware residuals (``with_retries=True``) are *informational*: the
faulted denominator collapses to the bare response-wire floor, which no
forwarding policy can pad away, so sufficiency is always judged on the
clean residual while the faulted factor shows what a retry budget still
costs under origin faults.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

# Still importable from here; the e2e tracing harness patches this alias.
from repro.analysis.bounds import obr_bound  # noqa: F401
from repro.analysis.families import (
    COST_CONFIG_ONLY,
    COST_FETCH_FLOW,
    COST_HEADER_GUARD,
    COST_LABELS,
    FAMILIES_BY_NAME,
    AttackFamily,
    MitigationSpec,
    mitigation_profile_factory,
    split_subject,
)
from repro.analysis.report import (
    AnalysisReport,
    Finding,
    analyze_vendor_matrix,
    severity_for_factor,
)
from repro.errors import ConfigurationError
from repro.obs.metrics import current_metrics

MB = 1 << 20

#: Default residual threshold: the "low"/"medium" severity boundary.  A
#: mitigation is *sufficient* when the residual worst-case factor stays
#: strictly below it (residual severity "low" or better).
DEFAULT_THRESHOLD = 10.0


@dataclass(frozen=True)
class MitigationOption:
    """One evaluated (finding, mitigation) pair."""

    spec: MitigationSpec
    #: Residual worst-case factor under the mitigated profile.
    residual_factor: float
    #: Retry-aware residual (informational; ``None`` unless requested).
    faulted_residual_factor: Optional[float]
    threshold: float

    @property
    def residual_severity(self) -> str:
        return severity_for_factor(self.residual_factor)

    @property
    def sufficient(self) -> bool:
        return self.residual_factor < self.threshold

    def to_dict(self) -> Dict[str, object]:
        return {
            "mitigation": self.spec.name,
            "target": self.spec.target,
            "label": self.spec.label,
            "cost": self.spec.cost_label,
            "description": self.spec.description,
            "residual_factor": round(self.residual_factor, 2),
            "residual_severity": self.residual_severity,
            "sufficient": self.sufficient,
            "faulted_residual_factor": (
                round(self.faulted_residual_factor, 2)
                if self.faulted_residual_factor is not None
                else None
            ),
        }


@dataclass(frozen=True)
class Recommendation:
    """The cheapest sufficient mitigation for one vulnerable finding."""

    finding: Finding
    #: The winning option (``None`` only if no candidate clears the
    #: threshold — the report flags that loudly).
    chosen: Optional[MitigationOption]
    #: Cheaper options that were evaluated and found insufficient.
    rejected: Tuple[MitigationOption, ...]
    threshold: float

    @property
    def kind(self) -> str:
        return self.finding.kind

    @property
    def subject(self) -> str:
        return self.finding.subject

    @property
    def resolved(self) -> bool:
        return self.chosen is not None and self.chosen.sufficient

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.finding.kind,
            "subject": self.finding.subject,
            "severity": self.finding.severity,
            "mechanism": self.finding.mechanism,
            "clean_factor": round(self.finding.factor_bound, 2),
            "chosen": self.chosen.to_dict() if self.chosen is not None else None,
            "rejected": [option.to_dict() for option in self.rejected],
        }


@dataclass(frozen=True)
class RecommendationReport:
    """Severity-ranked recommendations for every vulnerable finding."""

    recommendations: Tuple[Recommendation, ...]
    threshold: float
    resource_size: int
    obr_resource_size: int
    with_retries: bool
    ccfc_resource_size: int = 10 * MB

    @property
    def unresolved(self) -> Tuple[Recommendation, ...]:
        return tuple(r for r in self.recommendations if not r.resolved)

    @property
    def all_resolved(self) -> bool:
        return not self.unresolved

    def by_kind(self, kind: str) -> Tuple[Recommendation, ...]:
        return tuple(r for r in self.recommendations if r.kind == kind)

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(
            {
                "threshold": self.threshold,
                "resource_size": self.resource_size,
                "obr_resource_size": self.obr_resource_size,
                "ccfc_resource_size": self.ccfc_resource_size,
                "with_retries": self.with_retries,
                "all_resolved": self.all_resolved,
                "recommendations": [r.to_dict() for r in self.recommendations],
            },
            indent=indent,
            sort_keys=False,
        )


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------


def _pick(
    options: Sequence[MitigationOption],
) -> Tuple[Optional[MitigationOption], Tuple[MitigationOption, ...]]:
    """First sufficient option in cost order; everything cheaper that
    failed becomes the rejected list."""
    rejected: List[MitigationOption] = []
    for option in options:
        if option.sufficient:
            return option, tuple(rejected)
        rejected.append(option)
    return None, tuple(rejected)


def _record(recommendation: Recommendation) -> None:
    metrics = current_metrics()
    if metrics is None:
        return
    evaluated = list(recommendation.rejected)
    if recommendation.chosen is not None:
        evaluated.append(recommendation.chosen)
    for option in evaluated:
        metrics.record_recommendation(
            kind=recommendation.kind,
            mitigation=option.spec.label,
            sufficient=option.sufficient,
            residual_factor=option.residual_factor,
        )


def _recommend(
    finding: Finding,
    family: AttackFamily,
    resource_size: int,
    threshold: float,
    with_retries: bool,
) -> Recommendation:
    subject = split_subject(finding.subject)
    faulted = family.faulted_residual if with_retries else None
    options = [
        MitigationOption(
            spec=spec,
            residual_factor=family.residual(subject, spec, resource_size),
            faulted_residual_factor=(
                faulted(subject, spec, resource_size) if faulted is not None else None
            ),
            threshold=threshold,
        )
        for spec in family.mitigations
    ]
    chosen, rejected = _pick(options)
    return Recommendation(
        finding=finding, chosen=chosen, rejected=rejected, threshold=threshold
    )


def recommend(
    resource_size: int = 10 * MB,
    obr_resource_size: int = 1024,
    threshold: float = DEFAULT_THRESHOLD,
    with_retries: bool = False,
    report: Optional[AnalysisReport] = None,
    ccfc_resource_size: int = 10 * MB,
) -> RecommendationReport:
    """Recommend the cheapest sufficient mitigation per vulnerable finding.

    ``report`` reuses an existing static analysis (it must have been
    computed for the same sizes); by default the full vendor matrix is
    analyzed first.  Recommendations keep the report's severity ranking.
    """
    if not 0 < threshold < math.inf:
        raise ConfigurationError(f"threshold must be finite and > 0, got {threshold}")
    if report is None:
        report = analyze_vendor_matrix(
            resource_size=resource_size,
            obr_resource_size=obr_resource_size,
            ccfc_resource_size=ccfc_resource_size,
        )
    sizes = dict(
        resource_size=resource_size,
        obr_resource_size=obr_resource_size,
        ccfc_resource_size=ccfc_resource_size,
    )
    recommendations: List[Recommendation] = []
    for finding in report.vulnerable:
        family = FAMILIES_BY_NAME[finding.kind]
        recommendation = _recommend(
            finding, family, sizes[family.size_kwarg], threshold, with_retries
        )
        _record(recommendation)
        recommendations.append(recommendation)
    return RecommendationReport(
        recommendations=tuple(recommendations),
        threshold=threshold,
        resource_size=resource_size,
        obr_resource_size=obr_resource_size,
        with_retries=with_retries,
        ccfc_resource_size=ccfc_resource_size,
    )


# ---------------------------------------------------------------------------
# Dynamic cross-validation
# ---------------------------------------------------------------------------

#: Resource sizes for the quick SBR verification grid — small enough to
#: stay fast, two points so size scaling is exercised.
QUICK_SIZES: Tuple[int, ...] = (1 * MB, 2 * MB)


@dataclass(frozen=True)
class VerificationCheck:
    """One simulated attack under a mitigated profile vs its bound."""

    kind: str
    subject: str
    mitigation: str
    resource_size: int
    simulated_factor: float
    residual_bound: float

    @property
    def ok(self) -> bool:
        return self.simulated_factor <= self.residual_bound

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "subject": self.subject,
            "mitigation": self.mitigation,
            "resource_size": self.resource_size,
            "simulated_factor": round(self.simulated_factor, 3),
            "residual_bound": round(self.residual_bound, 3),
            "ok": self.ok,
        }


def verify_recommendation(
    recommendation: Recommendation,
    sizes: Sequence[int] = QUICK_SIZES,
    obr_resource_size: int = 1024,
) -> List[VerificationCheck]:
    """Simulate the attack under the chosen mitigation and compare the
    measured factor against the residual bound (sim <= bound must hold,
    same contract as the clean bounds; for CCFC the bound is exact, so
    the check is equality up to the <= comparison)."""
    if recommendation.chosen is None:
        return []
    spec = recommendation.chosen.spec
    family = FAMILIES_BY_NAME[recommendation.kind]
    subject = split_subject(recommendation.subject)
    checks: List[VerificationCheck] = []
    for size in sizes if family.sweeps_sizes else (obr_resource_size,):
        simulated = family.simulate(subject, size, spec)
        if simulated is None:
            continue
        checks.append(
            VerificationCheck(
                kind=family.name,
                subject=recommendation.subject,
                mitigation=spec.label,
                resource_size=size,
                simulated_factor=simulated,
                residual_bound=family.residual(subject, spec, size),
            )
        )
    return checks


def verify_recommendations(
    report: RecommendationReport, sizes: Sequence[int] = QUICK_SIZES
) -> List[VerificationCheck]:
    """Cross-validate every recommendation in ``report`` dynamically."""
    checks: List[VerificationCheck] = []
    for recommendation in report.recommendations:
        checks.extend(
            verify_recommendation(
                recommendation,
                sizes=sizes,
                obr_resource_size=report.obr_resource_size,
            )
        )
    return checks


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def render_recommendations_table(report: RecommendationReport) -> str:
    """The recommendations as the repo's standard ASCII table."""
    from repro.reporting.render import render_table

    rows = []
    for recommendation in report.recommendations:
        chosen = recommendation.chosen
        rejected = ", ".join(
            f"{option.spec.label} ({option.residual_factor:.1f}x)"
            for option in recommendation.rejected
        )
        rows.append(
            [
                recommendation.finding.severity,
                recommendation.kind,
                recommendation.subject,
                chosen.spec.label if chosen is not None else "NONE",
                chosen.spec.cost_label if chosen is not None else "-",
                f"{chosen.residual_factor:.2f}x" if chosen is not None else "-",
                f"{recommendation.finding.factor_bound:.0f}x",
                rejected or "-",
            ]
        )
    return render_table(
        [
            "Severity",
            "Kind",
            "Subject",
            "Mitigation",
            "Cost",
            "Residual",
            "Clean bound",
            "Rejected (cheaper, insufficient)",
        ],
        rows,
    )


__all__ = [
    "DEFAULT_THRESHOLD",
    "COST_CONFIG_ONLY",
    "COST_FETCH_FLOW",
    "COST_HEADER_GUARD",
    "QUICK_SIZES",
    "MitigationOption",
    "MitigationSpec",
    "Recommendation",
    "RecommendationReport",
    "VerificationCheck",
    "mitigation_profile_factory",
    "recommend",
    "render_recommendations_table",
    "verify_recommendation",
    "verify_recommendations",
]
