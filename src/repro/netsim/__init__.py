"""Simulated network substrate.

The paper measures attack traffic with packet captures on four network
segments (client–cdn, cdn–origin, fcdn–bcdn, bcdn–origin).  This package
provides the equivalent observation points for the simulator:

* :mod:`repro.netsim.clock` — a deterministic simulation clock.
* :mod:`repro.netsim.connection` — per-connection byte accounting, with
  response truncation (for Azure's 8 MB connection cut) and abort
  semantics (for the OBR attacker's early client-side abort).
* :mod:`repro.netsim.tap` — a traffic ledger aggregating connections into
  named segments, the unit the amplification reports are computed over.
* :mod:`repro.netsim.overhead` — optional analytic TCP/IP framing
  overhead, off by default.
* :mod:`repro.netsim.bandwidth` — a fluid-flow link/transfer simulator
  used for the paper's fourth experiment (Fig 7).
"""

from __future__ import annotations
