"""Range-forwarding policies (paper §III-B).

When a CDN forwards a range request upstream it chooses one of three
policies for the ``Range`` header:

* **Laziness** — forward it unchanged.
* **Deletion** — remove it (fetch the whole representation).
* **Expansion** — widen it (fetch a larger window).

*Deletion* and *Expansion* are cache-friendly and are exactly what the
SBR attack exploits; *Laziness* at a front CDN combined with a
multipart-happy back CDN enables the OBR attack.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Tuple

MB = 1 << 20


class ForwardPolicy(Enum):
    """The three Range-forwarding policies from the paper."""

    LAZINESS = "laziness"
    DELETION = "deletion"
    EXPANSION = "expansion"


@dataclass(frozen=True)
class ForwardDecision:
    """What to do with the Range header on the upstream request.

    ``forwarded_range`` is the header value to send upstream — ``None``
    under *Deletion*, the original value under *Laziness*, and the
    widened value under *Expansion*.
    """

    policy: ForwardPolicy
    forwarded_range: Optional[str]

    @classmethod
    def lazy(cls, original_value: Optional[str]) -> "ForwardDecision":
        return cls(ForwardPolicy.LAZINESS, original_value)

    @classmethod
    def delete(cls) -> "ForwardDecision":
        return cls(ForwardPolicy.DELETION, None)

    @classmethod
    def expand(cls, new_value: str) -> "ForwardDecision":
        return cls(ForwardPolicy.EXPANSION, new_value)


def mb_aligned_expansion(
    first: int,
    last: int,
    cap: Optional[int] = 10 * MB,
) -> Optional[Tuple[int, int]]:
    """CloudFront's megabyte-aligned expansion (paper §V-A item 3).

    ``first' = (first >> 20) << 20`` and
    ``last' = ((last >> 20) + 1 << 20) - 1`` — i.e. the range is widened
    to whole-MB boundaries.  Returns ``None`` when the widened window
    would exceed ``cap`` bytes (CloudFront's 10 485 760-byte multi-range
    limit), letting the caller fall back to another policy.

    >>> mb_aligned_expansion(0, 0)
    (0, 1048575)
    >>> mb_aligned_expansion(0, 9437184)
    (0, 10485759)
    >>> mb_aligned_expansion(0, 10485760) is None
    True
    """
    if first < 0 or last < first:
        raise ValueError(f"invalid range [{first}, {last}]")
    expanded_first = (first // MB) * MB
    expanded_last = (last // MB + 1) * MB - 1
    if cap is not None and expanded_last - expanded_first + 1 > cap:
        return None
    return expanded_first, expanded_last


def bounded_expansion(first: int, last: int, slack: int = 8 * 1024) -> Tuple[int, int]:
    """The mitigation-grade expansion from paper §VI-C: widen by at most
    ``slack`` bytes, so the front/back traffic difference stays small."""
    if first < 0 or last < first:
        raise ValueError(f"invalid range [{first}, {last}]")
    return first, last + slack
