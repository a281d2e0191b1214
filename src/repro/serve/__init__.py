"""A DoS-hardened amplification-analysis service.

The irony this package leans into: a library about amplification DoS
should itself survive being stampeded.  :mod:`repro.serve` wraps the
static analysis (:mod:`repro.analysis`) and each attack family's exact
wire simulation (:mod:`repro.core`, OBR at its static max n) in a
long-running HTTP service with the classic
robustness trio —

* **admission control** (:mod:`repro.serve.admission`): a token bucket
  plus a bounded waiting room; overload is shed early with ``429`` and
  an honest ``Retry-After`` instead of queueing unboundedly;
* **deadlines** (:mod:`repro.serve.deadline`): every request carries a
  budget (server default, client-cappable via ``X-Deadline-Ms``); batch
  work stops mid-flight at expiry and returns partial results;
* **graceful degradation** (:mod:`repro.serve.breaker`): the exact
  simulation path sits behind a circuit breaker; when it misbehaves the
  service answers from closed-form bounds alone and says so
  (``"degraded": true``).

Every component takes an injected clock so the whole state machine is
deterministic under test; wall time enters only at the asyncio edge
(:mod:`repro.serve.server`).
"""

from __future__ import annotations
