"""Severity-ranked static findings over vendors, cascades, deployments.

:func:`analyze_vendor_matrix` is the pre-simulation vulnerability
report: it classifies every registered vendor (SBR, CCFC) and every
FCDN×BCDN cell (OBR) from pure configuration probes and attaches the
closed-form worst-case bounds of :mod:`repro.analysis.bounds`.  No
deployment is built and no ledger records a byte — the zero-traffic
test pins this.  How each family classifies and bounds a subject is its
:class:`~repro.analysis.families.AttackFamily` record's finding builder;
this module runs the builders and ranks what they find.

:func:`analyze_deployment` applies the same passes to one concrete
:class:`~repro.core.deployment.Deployment`: the chain's actual vendors,
configs, overhead model, and origin resource sizes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:
    from repro.core.deployment import Deployment

# Still importable from here; the e2e tracing harness patches this alias.
from repro.analysis.bounds import obr_bound  # noqa: F401
from repro.cdn.vendors import all_vendor_names
from repro.netsim.overhead import OverheadModel

MB = 1 << 20

#: Severity buckets by worst-case amplification factor, most severe
#: first (the report's ranking order).
SEVERITY_ORDER: Tuple[str, ...] = ("critical", "high", "medium", "low", "info")


def severity_for_factor(factor: float) -> str:
    """Bucket a worst-case amplification factor."""
    if factor >= 1000:
        return "critical"
    if factor >= 100:
        return "high"
    if factor >= 10:
        return "medium"
    if factor > 1:
        return "low"
    return "info"


@dataclass(frozen=True)
class Finding:
    """One statically-derived vulnerability (or safety) statement."""

    #: ``"sbr"``, ``"obr"``, ``"ccfc"``, or ``"safe"``.
    kind: str
    severity: str
    #: ``"azure"`` for a vendor, ``"cdn77 -> akamai"`` for a cascade.
    subject: str
    #: Exploitation mechanism (``deletion``, ``expansion``,
    #: ``stateful-deletion``, ``fetch-flow``, ``laziness+honor``, or
    #: ``none``).
    mechanism: str
    #: Closed-form worst-case amplification factor (0 for safe cells).
    factor_bound: float
    #: One-line human-readable summary.
    detail: str
    #: JSON-friendly extras: bounds, exploited cases, max n, sizes.
    data: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "severity": self.severity,
            "subject": self.subject,
            "mechanism": self.mechanism,
            "factor_bound": round(self.factor_bound, 2),
            "detail": self.detail,
            "data": self.data,
        }


@dataclass(frozen=True)
class AnalysisReport:
    """All findings from one static-analysis run, severity-ranked."""

    findings: Tuple[Finding, ...]
    #: SBR resource size the bounds were computed for.
    resource_size: int
    #: OBR resource size the cascade bounds were computed for.
    obr_resource_size: int
    #: CCFC resource size the compression bounds were computed for.
    ccfc_resource_size: int = 10 * MB

    @property
    def vulnerable(self) -> Tuple[Finding, ...]:
        return tuple(f for f in self.findings if f.kind != "safe")

    @property
    def safe(self) -> Tuple[Finding, ...]:
        return tuple(f for f in self.findings if f.kind == "safe")

    def by_kind(self, kind: str) -> Tuple[Finding, ...]:
        return tuple(f for f in self.findings if f.kind == kind)

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(
            {
                "resource_size": self.resource_size,
                "obr_resource_size": self.obr_resource_size,
                "ccfc_resource_size": self.ccfc_resource_size,
                "findings": [f.to_dict() for f in self.findings],
            },
            indent=indent,
            sort_keys=False,
        )


def _rank(findings: Sequence[Finding]) -> Tuple[Finding, ...]:
    """Severity-ranked: most severe bucket first, larger bound first."""
    return tuple(
        sorted(
            findings,
            key=lambda f: (SEVERITY_ORDER.index(f.severity), -f.factor_bound, f.subject),
        )
    )


def analyze_vendor_matrix(
    resource_size: int = 10 * MB,
    obr_resource_size: int = 1024,
    ccfc_resource_size: int = 10 * MB,
    vendors: Optional[Sequence[str]] = None,
    sbr_overhead: Optional[OverheadModel] = None,
    obr_overhead: Optional[OverheadModel] = None,
    ccfc_overhead: Optional[OverheadModel] = None,
) -> AnalysisReport:
    """Statically audit every vendor and every FCDN×BCDN cell.

    Purely configuration-driven: decision-table probes plus closed-form
    bounds.  SBR and CCFC bounds default to payload-only accounting and
    OBR bounds to TCP-framed accounting, matching the simulated attacks'
    defaults.  Every vendor gets a CCFC finding — ``kind="ccfc"`` when
    vulnerable, a ``kind="safe"`` row tagged ``data["attack"]="ccfc"``
    otherwise — so compression behavior is classified for the whole
    registry.
    """
    from repro.analysis.families import FAMILIES, SHAPES

    names = list(vendors) if vendors is not None else all_vendor_names()
    sizes: Dict[str, Any] = dict(
        resource_size=resource_size,
        obr_resource_size=obr_resource_size,
        ccfc_resource_size=ccfc_resource_size,
    )
    overheads = {"sbr": sbr_overhead, "obr": obr_overhead, "ccfc": ccfc_overhead}
    findings: List[Finding] = []
    # Subject-major (per vendor: SBR then CCFC; cascades after), the
    # insertion order the stable severity sort keeps among ties.
    for shape in SHAPES:
        families = [family for family in FAMILIES if family.shape is shape]
        for subject in shape.subjects(names):
            for family in families:
                size, overhead = sizes[family.size_kwarg], overheads[family.name]
                finding = family.finding(subject, size, overhead, None)
                if family.lists_safe or finding.kind != "safe":
                    findings.append(finding)
    return AnalysisReport(findings=_rank(findings), **sizes)


def analyze_deployment(
    deployment: Deployment,
    resource_sizes: Optional[Sequence[int]] = None,
) -> AnalysisReport:
    """Statically audit one wired deployment without sending traffic.

    Reads the chain's vendors and per-node configs, the ledger's
    overhead model, and the origin store's resource sizes; classifies
    each node (SBR, CCFC) and each adjacent pair (OBR) and bounds them
    with the deployment's own overhead model.
    """
    from repro.analysis.families import FAMILIES, SHAPES

    overhead = deployment.ledger.overhead
    store = deployment.origin.store
    sizes = (
        list(resource_sizes)
        if resource_sizes is not None
        else sorted({store.get(path).size for path in store.paths()})
    ) or [10 * MB]

    findings: List[Finding] = []
    for shape in SHAPES:
        families = [family for family in FAMILIES if family.shape is shape]
        for subject, configs in shape.chain(deployment.nodes):
            for family in families:
                for size in family.deployment_sizes(sizes):
                    finding = family.finding(subject, size, overhead, configs)
                    if family.lists_safe or finding.kind != "safe":
                        findings.append(finding)

    bounded_at: Dict[str, Any] = {
        family.size_kwarg: max(family.deployment_sizes(sizes)) for family in FAMILIES
    }
    return AnalysisReport(findings=_rank(findings), **bounded_at)


def render_findings_table(report: AnalysisReport) -> str:
    """The findings as the repo's standard ASCII table."""
    from repro.reporting.render import render_table

    rows = [
        [
            finding.severity,
            finding.kind,
            finding.subject,
            finding.mechanism,
            f"{finding.factor_bound:.0f}x" if finding.factor_bound else "-",
            finding.detail,
        ]
        for finding in report.findings
    ]
    return render_table(
        ["Severity", "Kind", "Subject", "Mechanism", "Bound", "Detail"], rows
    )
