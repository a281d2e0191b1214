"""The paper's primary contribution: RangeAmp attack construction,
execution, and measurement.

* :mod:`repro.core.deployment` — wires client → CDN chain → origin with
  traffic taps on every segment.
* :mod:`repro.core.cachebusting` — query-string cache busting (§II-A).
* :mod:`repro.core.amplification` — amplification-factor accounting.
* :mod:`repro.core.sbr` — the Small Byte Range attack (§IV-B), including
  each vendor's exploited range case from Table IV.
* :mod:`repro.core.obr` — the Overlapping Byte Ranges attack (§IV-C),
  including the max-n search against header limits (Table V).
* :mod:`repro.core.ccfc` — the CCFC compression-conversion attack
  (arXiv 2409.00712): edge rewrites Accept-Encoding upstream and ships
  decompressed bodies to identity-only clients.
* :mod:`repro.core.feasibility` — the paper's first experiment: probe a
  CDN with ABNF-generated range requests and classify its policies
  (Tables I–III).
* :mod:`repro.core.practical` — the paper's fourth experiment: sustained
  SBR floods against a bandwidth-limited origin (Fig 7).
"""

from __future__ import annotations
