"""Numeric series behind the paper's figures.

* Fig 6a/6b/6c — per-vendor SBR amplification factor, CDN-to-client
  traffic, and origin-to-CDN traffic, swept over resource sizes of
  1–25 MB.
* Fig 7a/7b — client incoming and origin outgoing bandwidth over time
  for m = 1..15 concurrent attack streams; the series is the flood
  grid's list of :class:`~repro.core.practical.BandwidthRunResult`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Sequence, Tuple

from repro.core.sbr import SbrResult

MB = 1 << 20


@dataclass(frozen=True)
class Fig6Series:
    """One vendor's curve across the three panels of Fig 6."""

    vendor: str
    sizes: Tuple[int, ...]
    #: Fig 6a — amplification factor per size.
    factors: Tuple[float, ...]
    #: Fig 6b — response traffic CDN -> client per size (bytes).
    client_traffic: Tuple[int, ...]
    #: Fig 6c — response traffic origin -> CDN per size (bytes).
    origin_traffic: Tuple[int, ...]


def default_fig6_sizes() -> List[int]:
    """1 MB to 25 MB stepped by 1 MB, as in the paper."""
    return [m * MB for m in range(1, 26)]


def fig6_series_from_results(
    results: Mapping[Tuple[str, int], SbrResult],
    vendors: Sequence[str],
    sizes: Sequence[int],
) -> List[Fig6Series]:
    """Assemble Fig 6 series from (vendor, size) -> SbrResult mappings."""
    series = []
    for name in vendors:
        cells = [results[(name, size)] for size in sizes]
        series.append(
            Fig6Series(
                vendor=name,
                sizes=tuple(sizes),
                factors=tuple(r.amplification for r in cells),
                client_traffic=tuple(r.client_traffic for r in cells),
                origin_traffic=tuple(r.origin_traffic for r in cells),
            )
        )
    return series

