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
  through a declared facade.  Backs ``repro purity``.
* **Defense recommendations** — :func:`~repro.analysis.recommend.recommend`
  turns the findings into the cheapest sufficient mitigation per
  vulnerable vendor/cascade, with residual bounds and dynamic
  cross-validation (``repro recommend``).
"""

from __future__ import annotations
