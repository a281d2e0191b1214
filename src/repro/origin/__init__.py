"""Origin-server substrate.

The paper's origin is a stock Apache/2.4.18 on a 1000 Mbps uplink.
:class:`~repro.origin.server.OriginServer` reproduces its observable
behavior for this study: 200/206/416 selection, single-part and
multipart range replies, the post-CVE-2011-3192 guard against abusive
multi-range requests, and an Apache-shaped response header block (whose
byte weight feeds the amplification denominators).
"""

from __future__ import annotations
