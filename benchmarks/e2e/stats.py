"""Summary statistics for the end-to-end benchmark.

Percentiles use the nearest-rank definition, so "how many samples lie
beyond a percentile" is an exact count: the p-th percentile of ``n``
sorted samples is the ``ceil(p * n / 100)``-th one, and the samples
after it are the ones beyond it.  A timing is reported as its median
plus the highest percentile that still has at least
:data:`MIN_BEYOND` samples beyond it; anything higher would rest on a
handful of outliers.
"""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence, Tuple

#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99, 95, 90, 75, 50)
#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


def _rank(pct: float, count: int) -> int:
    """1-based nearest rank of the ``pct``-th percentile of ``count``."""
    return max(1, math.ceil(pct * count / 100))


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (``pct`` in (0, 100])."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    return ordered[_rank(pct, len(ordered)) - 1]


def beyond(pct: float, count: int) -> int:
    """How many of ``count`` samples lie beyond the ``pct``-th percentile."""
    return count - _rank(pct, count)


def tail(values: Sequence[float]) -> Optional[Tuple[int, float]]:
    """``(pct, value)`` for the highest percentile with enough samples
    beyond it, or ``None`` when even the median has fewer."""
    for pct in TAIL_PERCENTILES:
        if beyond(pct, len(values)) >= MIN_BEYOND:
            return pct, percentile(values, pct)
    return None


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def describe(values: Sequence[float], unit: str, scale: float = 1.0) -> str:
    """``p50=… p75=… (n=…)`` for a human-readable report line."""
    if not values:
        return "n=0"
    text = f"p50={median(values) * scale:.4g}{unit}"
    found = tail(values)
    if found is not None and found[0] != 50:
        text += f" p{found[0]}={found[1] * scale:.4g}{unit}"
    return f"{text} (n={len(values)})"
