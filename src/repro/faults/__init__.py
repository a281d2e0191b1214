"""``repro.faults`` — deterministic fault injection and retry modeling.

The paper's amplification numbers assume a healthy origin and clean
transfers.  Real CDNs retry failed back-to-origin fetches, so a fetch
window that dies mid-transfer is shipped *again* — amplifying beyond
Table IV.  This package makes that measurable, deterministically:

* :mod:`repro.faults.plan` — :class:`FaultPlan` (seeded rule set) and
  :class:`FaultInjector` (stateful decision engine).  Decisions hash
  ``(seed, rule, counter)`` instead of drawing from a stateful RNG, so
  the same seed produces the same fault sequence in any process.
  Installed via the :func:`use_faults` context manager; every injection
  point guards on :func:`current_faults`, so the disabled hot path pays
  one ``ContextVar`` read and nothing else.
* :mod:`repro.faults.retry` — :class:`RetryPolicy` (attempt budget,
  exponential backoff with deterministic jitter) and the per-vendor
  policy registry governing CDN back-to-origin re-fetches.
* :mod:`repro.faults.experiment` — ``measure_sbr_under_faults``, the
  retry-induced re-amplification measurement.
"""

from __future__ import annotations
