#!/usr/bin/env python3
"""OBR attack deep-dive: cascading CDNs, the max-n search, and the
attacker's abort trick.

Usage::

    python examples/obr_cascade_demo.py [fcdn bcdn]

With no arguments, measures all 11 vulnerable combinations (Table V).
With a pair (e.g. ``cloudflare akamai``), walks through one combination
step by step: probing the header limits for max n, running the attack,
and showing the per-segment traffic asymmetry.
"""

import sys

from repro.core.obr import ObrAttack, vulnerable_combinations
from repro.reporting.render import format_bytes, render_table


def sweep_all_combinations() -> None:
    rows = []
    for fcdn, bcdn in vulnerable_combinations():
        result = ObrAttack(fcdn, bcdn).run()
        rows.append(
            [
                fcdn,
                bcdn,
                result.overlap_count,
                format_bytes(result.bcdn_origin_traffic),
                format_bytes(result.fcdn_bcdn_traffic),
                f"{result.amplification:.1f}x",
            ]
        )
    print(
        render_table(
            ["FCDN", "BCDN", "max n", "origin->BCDN", "BCDN->FCDN", "amplification"],
            rows,
        )
    )


def walkthrough(fcdn: str, bcdn: str) -> None:
    attack = ObrAttack(fcdn, bcdn)

    print(f"Probing {fcdn} -> {bcdn} for the largest accepted overlap count...")
    for n in (64, 1024, 8192, 16384):
        status = attack.probe(n)
        print(f"  n={n:6d}: HTTP {status}")
    max_n = attack.find_max_n()
    print(f"  binary search result: max n = {max_n}")

    result = attack.run(overlap_count=max_n)
    header = attack.range_value(min(4, max_n))
    print(f"\nAttack request: Range: {header},...  ({max_n} ranges, "
          f"{result.range_value_size} header bytes)")
    print("Traffic per segment (response direction):")
    print(f"  origin -> BCDN:     {format_bytes(result.bcdn_origin_traffic)}  "
          f"(one full fetch of the 1 KB target)")
    print(f"  BCDN  -> FCDN:      {format_bytes(result.fcdn_bcdn_traffic)}  "
          f"({max_n}-part multipart/byteranges)")
    print(f"  FCDN  -> attacker:  {format_bytes(result.client_traffic)}  "
          f"(connection aborted after ~2 KB)")
    print(f"Amplification on the inter-CDN link: {result.amplification:.1f}x")


def main() -> None:
    if len(sys.argv) == 3:
        walkthrough(sys.argv[1], sys.argv[2])
    else:
        sweep_all_combinations()


if __name__ == "__main__":
    main()
