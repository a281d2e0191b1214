"""RangeAmp: a reproduction of *CDN Backfired: Amplification Attacks
Based on HTTP Range Requests* (DSN 2020).

The library builds a wire-accurate HTTP/CDN simulation substrate —
origin server, 13 CDN vendor behavior profiles, per-segment traffic
taps — and on top of it the paper's two attacks:

* **SBR** (Small Byte Range): tiny range request in, whole resource out
  of the origin (:class:`repro.core.sbr.SbrAttack`);
* **OBR** (Overlapping Byte Ranges): n overlapping ranges through a lazy
  front CDN, an n-part multipart out of the back CDN
  (:class:`repro.core.obr.ObrAttack`);
* **CCFC** (Compression Format Conversion, arXiv 2409.00712): the edge
  rewrites Accept-Encoding upstream, pulls a compressed body from the
  origin, and ships the decompressed bytes to an identity-only client
  (:class:`repro.core.ccfc.CcfcAttack`).

Quickstart (every name is imported from the module that defines it;
the packages re-export nothing)::

    from repro.core.sbr import SbrAttack

    result = SbrAttack("akamai", resource_size=25 * 1024 * 1024).run()
    print(f"amplification: {result.amplification:.0f}x")

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

from __future__ import annotations

__version__ = "1.0.0"
