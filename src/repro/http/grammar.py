"""Deterministic generation of valid ``Range`` headers from the RFC ABNF.

The paper's first experiment probes each CDN with "a large number of
valid range requests automatically generated based on the ABNF rules
described in the RFCs" and classifies the forwarding behavior per range
*format*.  This module produces that dataset: a corpus of
:class:`RangeCase` objects, each a valid Range header value tagged with
the structural format it instantiates.

Generation is seeded and fully deterministic so the feasibility tables
are reproducible run-to-run.

Each OBR value is built once per process: the max-n search asks for the
same ``(count, leading)`` at ``n`` and ``n + 1`` of every cascade, and a
cold audit asks 132 times for 20 distinct values of up to ~33 KB.
:func:`overlapping_open_ranges_value` answers a repeated pair from the
named memo ``obr_range_value``: at most
:data:`~repro.http.ranges.CACHED_VALUES` entries, each a value of at
most :data:`~repro.http.ranges.CACHED_VALUE_CHARS` characters, so the table
holds at most 8 MiB (~6 MB at the largest overlap count any entry point
accepts, ~96 KB a value).  Sharing is safe because strings are
immutable, and it helps the parser: every probe hands
:func:`~repro.http.ranges.parse_range_header` the same string object,
whose hash, the parse memo's key, is then computed once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from typing import List, Optional

from repro.http.ranges import CACHED_VALUE_CHARS, CACHED_VALUES
from repro.obs.memo import Memo


class RangeFormat(Enum):
    """The structural range formats Tables I–III classify behavior by."""

    #: ``bytes=first-last`` — a closed single range.
    FIRST_LAST = "bytes=first-last"
    #: ``bytes=first-`` — an open-ended single range.
    FIRST_OPEN = "bytes=first-"
    #: ``bytes=-suffix`` — a suffix range.
    SUFFIX = "bytes=-suffix"
    #: ``bytes=first1-last1,...,firstn-lastn`` — multiple closed ranges.
    MULTI_CLOSED = "bytes=first1-last1,...,firstn-lastn"
    #: ``bytes=start1-,start2-,...,startn-`` — multiple open (overlapping)
    #: ranges; the OBR attack shape.
    MULTI_OPEN = "bytes=start1-,start2-,...,startn-"
    #: ``bytes=-suffix,start2-,...,startn-`` — a suffix range followed by
    #: open ranges (the CDN77 OBR case from Table V).
    SUFFIX_THEN_OPEN = "bytes=-suffix,start2-,...,startn-"
    #: ``bytes=1-,0-,...,0-`` — overlapping open ranges led by ``1-``
    #: (the CDNsun OBR case from Table V).
    MULTI_OPEN_LEAD_ONE = "bytes=1-,start2-,...,startn-"


@dataclass(frozen=True)
class RangeCase:
    """One generated Range header and the format it instantiates."""

    format: RangeFormat
    header_value: str
    description: str


# ---------------------------------------------------------------------------
# Attack-shaped builders (exact strings, no randomness)
# ---------------------------------------------------------------------------

def single_range_value(first: int, last: Optional[int] = None) -> str:
    """``bytes=first-last`` or ``bytes=first-``."""
    return f"bytes={first}-" if last is None else f"bytes={first}-{last}"


def suffix_range_value(suffix_length: int) -> str:
    """``bytes=-suffix``."""
    return f"bytes=-{suffix_length}"


#: Built OBR values, by ``(count, leading)``.
_OBR_VALUES = Memo(maxsize=CACHED_VALUES, name="obr_range_value")


def overlapping_open_ranges_value(count: int, leading: Optional[str] = None) -> str:
    """Build the OBR multi-range value ``bytes=0-,0-,...,0-``.

    ``leading`` optionally replaces the first spec — e.g. ``"-1024"`` for
    the CDN77 case or ``"1-"`` for CDNsun, matching Table V's exploited
    range cases.

    >>> overlapping_open_ranges_value(3)
    'bytes=0-,0-,0-'
    >>> overlapping_open_ranges_value(3, leading='-1024')
    'bytes=-1024,0-,0-'
    """
    if count < 1:
        raise ValueError(f"need at least one range, got {count}")
    value: str = _OBR_VALUES.get_or_compute(
        (count, leading), lambda: _join_open_ranges(count, leading), _small_value
    )
    return value


def _small_value(value: str) -> bool:
    return len(value) <= CACHED_VALUE_CHARS


def _join_open_ranges(count: int, leading: Optional[str]) -> str:
    """The uncached build behind :func:`overlapping_open_ranges_value`:
    the repeats are one string multiplication, not a list join."""
    return "bytes=" + ("0-" if leading is None else leading) + ",0-" * (count - 1)


def obr_value_size(count: int, leading: Optional[str] = None) -> int:
    """Byte length of :func:`overlapping_open_ranges_value`'s output.

    Computed analytically so max-n searches do not build megabyte strings
    just to measure them.
    """
    if count < 1:
        raise ValueError(f"need at least one range, got {count}")
    spec_len = len("0-")
    total = len("bytes=") + count * spec_len + (count - 1)
    if leading is not None:
        total += len(leading) - spec_len
    return total


# ---------------------------------------------------------------------------
# Corpus generation (experiment 1 dataset)
# ---------------------------------------------------------------------------

#: Cases per single-range format (closed, open, suffix), counting the
#: fixed ones each format leads with.
SINGLE_CASES = 20
OPEN_CASES = 10
SUFFIX_CASES = 10
#: Disjoint multi-range cases, and the most parts one may have.
MULTI_CLOSED_CASES = 10
MULTI_CLOSED_MAX_PARTS = 8
#: Part counts of the overlapping (OBR-shaped) cases: plain ``0-`` runs,
#: and runs led by a suffix or by ``1-``.
MULTI_OPEN_COUNTS = (2, 4, 16, 64)
LED_OPEN_COUNTS = (2, 16, 64)

class RangeCorpusGenerator:
    """Seeded generator of valid Range header corpora."""

    def __init__(self, file_size: int = 1024, seed: int = 7233) -> None:
        if file_size < 4:
            raise ValueError("file_size must be at least 4 bytes")
        self.file_size = file_size
        self._rng = random.Random(seed)

    # -- single-range cases ---------------------------------------------------

    def single_range_cases(self) -> List[RangeCase]:
        """Closed ``first-last`` single ranges, skewed toward small ranges
        at the start of the file (the SBR attack shape)."""
        cases = [
            RangeCase(RangeFormat.FIRST_LAST, "bytes=0-0", "first byte only"),
            RangeCase(RangeFormat.FIRST_LAST, f"bytes=0-{self.file_size - 1}", "whole file"),
            RangeCase(RangeFormat.FIRST_LAST, "bytes=1-1", "second byte only"),
        ]
        for _ in range(SINGLE_CASES - len(cases)):
            first = self._rng.randrange(0, self.file_size)
            last = self._rng.randrange(first, self.file_size)
            cases.append(
                RangeCase(
                    RangeFormat.FIRST_LAST,
                    single_range_value(first, last),
                    f"random closed range {first}-{last}",
                )
            )
        return cases

    def open_range_cases(self) -> List[RangeCase]:
        """Open-ended ``first-`` single ranges."""
        cases = [RangeCase(RangeFormat.FIRST_OPEN, "bytes=0-", "whole file, open form")]
        for _ in range(OPEN_CASES - len(cases)):
            first = self._rng.randrange(0, self.file_size)
            cases.append(
                RangeCase(
                    RangeFormat.FIRST_OPEN,
                    single_range_value(first),
                    f"open range from {first}",
                )
            )
        return cases

    def suffix_range_cases(self) -> List[RangeCase]:
        """Suffix ``-N`` ranges, including the 1-byte SBR shape."""
        cases = [
            RangeCase(RangeFormat.SUFFIX, "bytes=-1", "last byte only"),
            RangeCase(RangeFormat.SUFFIX, f"bytes=-{self.file_size}", "whole file, suffix form"),
        ]
        for _ in range(SUFFIX_CASES - len(cases)):
            suffix = self._rng.randrange(1, self.file_size + 1)
            cases.append(
                RangeCase(RangeFormat.SUFFIX, suffix_range_value(suffix), f"last {suffix} bytes")
            )
        return cases

    # -- multi-range cases ------------------------------------------------------

    def multi_closed_cases(self) -> List[RangeCase]:
        """Disjoint multi-range requests (legitimate multipart usage)."""
        cases: List[RangeCase] = []
        for _ in range(MULTI_CLOSED_CASES):
            parts = self._rng.randrange(2, MULTI_CLOSED_MAX_PARTS + 1)
            cuts = sorted(self._rng.sample(range(self.file_size), min(parts * 2, self.file_size)))
            specs = [
                f"{cuts[i]}-{cuts[i + 1]}" for i in range(0, len(cuts) - 1, 2)
            ]
            if len(specs) < 2:
                specs = ["0-0", f"{self.file_size - 1}-{self.file_size - 1}"]
            cases.append(
                RangeCase(
                    RangeFormat.MULTI_CLOSED,
                    "bytes=" + ",".join(specs),
                    f"{len(specs)} disjoint closed ranges",
                )
            )
        return cases

    def multi_open_cases(self) -> List[RangeCase]:
        """Overlapping open-range requests (the OBR attack shape)."""
        return [
            RangeCase(
                RangeFormat.MULTI_OPEN,
                overlapping_open_ranges_value(n),
                f"{n} overlapping 0- ranges",
            )
            for n in MULTI_OPEN_COUNTS
        ]

    def suffix_then_open_cases(self) -> List[RangeCase]:
        """Suffix-led overlapping requests (the CDN77-compatible OBR shape)."""
        return [
            RangeCase(
                RangeFormat.SUFFIX_THEN_OPEN,
                overlapping_open_ranges_value(n, leading=f"-{self.file_size}"),
                f"suffix then {n - 1} overlapping 0- ranges",
            )
            for n in LED_OPEN_COUNTS
        ]

    def multi_open_lead_one_cases(self) -> List[RangeCase]:
        """Overlapping requests led by ``1-`` (the CDNsun-compatible OBR
        shape)."""
        return [
            RangeCase(
                RangeFormat.MULTI_OPEN_LEAD_ONE,
                overlapping_open_ranges_value(n, leading="1-"),
                f"1- then {n - 1} overlapping 0- ranges",
            )
            for n in LED_OPEN_COUNTS
        ]

    def invalid_cases(self) -> List[str]:
        """Malformed Range header values (NOT valid per the ABNF).

        Used by robustness tests: RFC 7233 §3.1 requires recipients to
        *ignore* unparsable Range headers, so every one of these must
        yield a full 200 end-to-end, never an error or a crash.
        """
        return [
            "",
            "bytes",
            "bytes=",
            "bytes=-",
            "bytes=--1",
            "bytes=5-3",
            "bytes=a-b",
            "bytes=1-2-3",
            "bytes=0x00-0xFF",
            "bytes= - ",
            "bytes=,",
            "0-499",
            "=0-499",
            "bytes:0-499",
            "bytes=1-2;3-4",
            f"bytes={'9' * 400}x-",
        ]

    def full_corpus(self) -> List[RangeCase]:
        """The complete experiment-1 dataset."""
        return (
            self.single_range_cases()
            + self.open_range_cases()
            + self.suffix_range_cases()
            + self.multi_closed_cases()
            + self.multi_open_cases()
            + self.suffix_then_open_cases()
            + self.multi_open_lead_one_cases()
        )
