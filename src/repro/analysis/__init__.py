"""Static analysis: amplification bounds and repo invariants.

Two independent passes (ISSUE 3):

* **Config analysis** — :func:`~repro.analysis.report.analyze_vendor_matrix`
  and :func:`~repro.analysis.report.analyze_deployment` classify vendors
  and cascades as SBR/OBR-vulnerable straight from their
  ``forward_decision`` tables, reply behaviors, and header limits, and
  compute closed-form worst-case amplification bounds (paper §IV) without
  simulating a single wire byte.
* **Code analysis** — :mod:`repro.analysis.lint` is an AST linter that
  enforces the repo's wire-accounting and typing invariants; it backs the
  ``repro lint`` CLI command and a pytest guard.
* **Determinism analysis** — :mod:`repro.analysis.callgraph` builds a
  whole-program call graph over ``src/repro`` and
  :mod:`repro.analysis.purity` propagates nondeterminism effects over it
  to fixpoint, reporting any call path from a nondeterminism source
  (wall clock, global RNG, ``id()``, env reads, set iteration) to a
  determinism sink (checkpoint journal, canonical run-record
  serialization, exporters, artifact writers) that is not laundered
  through a declared facade.  Backs ``repro purity`` and
  ``repro lint --deep``.
* **Defense recommendations** — :func:`~repro.analysis.recommend.recommend`
  turns the findings into the cheapest sufficient mitigation per
  vulnerable vendor/cascade, with residual bounds and dynamic
  cross-validation (``repro recommend``).
"""

from __future__ import annotations

from repro.analysis.bounds import (
    CcfcBound,
    ObrBound,
    SbrBound,
    ccfc_bound,
    obr_bound,
    profile_ccfc_bound,
    profile_sbr_bound,
    sbr_bound,
    static_max_n,
)
from repro.analysis.classify import (
    CascadeClassification,
    CcfcClassification,
    ObrBackendFacts,
    ProbeDecision,
    ProfileFactory,
    SbrClassification,
    classify_cascade,
    classify_ccfc,
    classify_obr_backend,
    classify_obr_frontend,
    classify_sbr,
)
from repro.analysis.recommend import (
    MitigationOption,
    MitigationSpec,
    Recommendation,
    RecommendationReport,
    VerificationCheck,
    recommend,
    render_recommendations_table,
    verify_recommendations,
)
from repro.analysis.report import (
    AnalysisReport,
    Finding,
    analyze_deployment,
    analyze_vendor_matrix,
    render_findings_table,
)

__all__ = [
    "AnalysisReport",
    "CascadeClassification",
    "CcfcBound",
    "CcfcClassification",
    "Finding",
    "MitigationOption",
    "MitigationSpec",
    "ObrBackendFacts",
    "ObrBound",
    "ProbeDecision",
    "ProfileFactory",
    "Recommendation",
    "RecommendationReport",
    "SbrBound",
    "SbrClassification",
    "VerificationCheck",
    "analyze_deployment",
    "analyze_vendor_matrix",
    "ccfc_bound",
    "classify_cascade",
    "classify_ccfc",
    "classify_obr_backend",
    "classify_obr_frontend",
    "classify_sbr",
    "obr_bound",
    "profile_ccfc_bound",
    "profile_sbr_bound",
    "recommend",
    "render_findings_table",
    "render_recommendations_table",
    "sbr_bound",
    "static_max_n",
    "verify_recommendations",
]
