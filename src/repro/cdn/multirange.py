"""Multi-range reply behaviors (paper Table III).

RFC 7233 §6.1 advises servers to "ignore, coalesce, or reject" range
requests with many small or overlapping ranges.  The paper found three
CDNs that *honor* overlapping multi-range requests verbatim — Akamai,
Azure (up to 64 ranges), and StackPath — making them usable as the OBR
attack's amplifying back-end.  The rest follow the RFC's advice.
"""

from __future__ import annotations

from enum import Enum
from typing import List, Optional, Sequence

from repro.errors import RangeNotSatisfiableError
from repro.http.ranges import RangeRun, coalesce_ranges


class MultiRangeReplyBehavior(Enum):
    """How a server replies to a multi-range request it can satisfy."""

    #: Build one part per requested range, overlap or not (vulnerable).
    HONOR = "honor"
    #: Merge overlapping/adjacent ranges first (RFC 7233 §6.1 advice).
    COALESCE = "coalesce"
    #: Serve only the first requested range as a single-part 206.
    FIRST_ONLY = "first-only"
    #: Refuse multi-range requests outright with a 416.
    REJECT = "reject"


def apply_reply_behavior(
    behavior: MultiRangeReplyBehavior,
    resolved: Sequence[RangeRun],
    complete_length: int,
    max_parts: Optional[int] = None,
) -> List[RangeRun]:
    """Return the ``(range, count)`` runs that will actually become
    response parts.

    ``max_parts`` (Azure's 64) applies after the behavior; exceeding it
    raises :class:`RangeNotSatisfiableError`, which the node turns into a
    416 — the signal the OBR max-n search keys on.
    """
    if not resolved:
        raise ValueError("apply_reply_behavior needs at least one resolved range")
    requested = sum(count for _, count in resolved)
    if requested == 1 or behavior is MultiRangeReplyBehavior.HONOR:
        parts = list(resolved)
    elif behavior is MultiRangeReplyBehavior.COALESCE:
        parts = [(r, 1) for r in coalesce_ranges([r for r, _ in resolved])]
    elif behavior is MultiRangeReplyBehavior.FIRST_ONLY:
        parts = [(resolved[0][0], 1)]
    elif behavior is MultiRangeReplyBehavior.REJECT:
        raise RangeNotSatisfiableError(
            f"multi-range request with {requested} ranges rejected",
            complete_length,
        )
    else:  # pragma: no cover - exhaustive over the enum
        raise AssertionError(f"unhandled behavior {behavior}")
    part_count = sum(count for _, count in parts)
    if max_parts is not None and part_count > max_parts:
        raise RangeNotSatisfiableError(
            f"{part_count} response parts exceed the {max_parts}-part limit",
            complete_length,
        )
    return parts
