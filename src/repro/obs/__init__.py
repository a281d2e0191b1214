"""``repro.obs`` — tracing, metrics, progress, and profiling.

The simulator's answer to the paper's four tcpdump observation points:
a context-propagated span tracer over the request pipeline
(:mod:`repro.obs.tracer`), a process-local metrics registry with JSON
and Prometheus export (:mod:`repro.obs.metrics`), a live progress line
for grid runs (:mod:`repro.obs.progress`), and the ``--profile``
report (:mod:`repro.obs.profile`).

Everything here defaults to **off**: with no tracer or registry
installed the instrumentation points in ``netsim``/``cdn``/``origin``/
``core`` cost one ``ContextVar`` read each and allocate nothing.
"""

from __future__ import annotations
