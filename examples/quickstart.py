#!/usr/bin/env python3
"""Quickstart: the two RangeAmp attacks in a dozen lines each.

Runs the SBR attack (tiny range in, whole resource out of the origin)
against a simulated Akamai edge, and the OBR attack (n overlapping
ranges, n-part multipart between two CDNs) through a simulated
Cloudflare -> Akamai cascade.

Usage::

    python examples/quickstart.py
"""

from repro.core.obr import ObrAttack
from repro.core.sbr import SbrAttack

MB = 1 << 20


def main() -> None:
    # --- SBR: one request, ~43000x amplification at 25 MB -----------------
    sbr = SbrAttack("akamai", resource_size=25 * MB).run()
    print("SBR attack against an origin behind Akamai")
    print(f"  attacker sent:      Range: bytes=0-0 (one request)")
    print(f"  attacker received:  {sbr.client_traffic} bytes")
    print(f"  origin pushed out:  {sbr.origin_traffic} bytes")
    print(f"  amplification:      {sbr.amplification:.0f}x  (paper: 43093x)")
    print()

    # --- OBR: one request, thousands-fold inter-CDN amplification ---------
    obr = ObrAttack("cloudflare", "akamai").run()
    print("OBR attack through a Cloudflare -> Akamai cascade (1 KB target)")
    print(f"  overlapping ranges (max n): {obr.overlap_count}  (paper: 10750)")
    print(f"  origin -> BCDN:             {obr.bcdn_origin_traffic} bytes")
    print(f"  BCDN -> FCDN:               {obr.fcdn_bcdn_traffic} bytes")
    print(f"  attacker received:          {obr.client_traffic} bytes (aborted early)")
    print(f"  amplification:              {obr.amplification:.0f}x  (paper: 7433x)")


if __name__ == "__main__":
    main()
