"""RFC 7233 byte-range grammar: parsing, formatting, and resolution.

This module implements the ``Range`` and ``Content-Range`` header grammar
from RFC 7233 §2–§4::

    Range             = byte-ranges-specifier / other-ranges-specifier
    byte-ranges-specifier = bytes-unit "=" byte-range-set
    byte-range-set    = 1#( byte-range-spec / suffix-byte-range-spec )
    byte-range-spec   = first-byte-pos "-" [ last-byte-pos ]
    suffix-byte-range-spec = "-" suffix-length

plus the resolution rules of §2.1 (clamping ``last-byte-pos`` to the end
of the representation, unsatisfiable-spec skipping, the 416 condition)
and analysis helpers the CDN simulator and the attacks rely on:
overlap detection, coalescing, and span statistics.

Terminology note: throughout, byte positions are **inclusive** on both
ends, matching the RFC ("bytes=0-0" is the first byte).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from repro.errors import RangeNotSatisfiableError, RangeParseError

#: RFC 7230 optional whitespace, allowed around the commas of a
#: byte-range-set by the 1#rule list extension.
_OWS = " \t"


@dataclass(frozen=True)
class ByteRangeSpec:
    """``first-byte-pos "-" [ last-byte-pos ]`` — e.g. ``0-499`` or ``9500-``."""

    first: int
    last: Optional[int] = None

    def __post_init__(self) -> None:
        if self.first < 0:
            raise RangeParseError(f"first-byte-pos must be >= 0, got {self.first}")
        if self.last is not None and self.last < self.first:
            raise RangeParseError(
                f"last-byte-pos {self.last} precedes first-byte-pos {self.first}"
            )

    @property
    def is_open_ended(self) -> bool:
        """True for ``first-`` specs with no last-byte-pos."""
        return self.last is None

    def to_string(self) -> str:
        return f"{self.first}-" if self.last is None else f"{self.first}-{self.last}"

    def resolve(self, complete_length: int) -> Optional["ResolvedRange"]:
        """Resolve against a representation of ``complete_length`` bytes.

        Returns ``None`` when the spec is unsatisfiable (first-byte-pos at
        or past the end), per RFC 7233 §2.1.
        """
        if self.first >= complete_length:
            return None
        last = complete_length - 1 if self.last is None else min(self.last, complete_length - 1)
        return ResolvedRange(self.first, last)


@dataclass(frozen=True)
class SuffixByteRangeSpec:
    """``"-" suffix-length`` — the final ``suffix-length`` bytes."""

    suffix_length: int

    def __post_init__(self) -> None:
        if self.suffix_length < 0:
            raise RangeParseError(
                f"suffix-length must be >= 0, got {self.suffix_length}"
            )

    def to_string(self) -> str:
        return f"-{self.suffix_length}"

    def resolve(self, complete_length: int) -> Optional["ResolvedRange"]:
        """Resolve per RFC 7233 §2.1; ``-0`` is unsatisfiable."""
        if self.suffix_length == 0 or complete_length == 0:
            return None
        start = max(0, complete_length - self.suffix_length)
        return ResolvedRange(start, complete_length - 1)


RangeSpec = Union[ByteRangeSpec, SuffixByteRangeSpec]


@dataclass(frozen=True, order=True)
class ResolvedRange:
    """A satisfiable byte window ``[start, end]`` (inclusive) of a concrete
    representation."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.end < self.start:
            raise ValueError(f"invalid resolved range [{self.start}, {self.end}]")

    @property
    def length(self) -> int:
        return self.end - self.start + 1

    def overlaps(self, other: "ResolvedRange") -> bool:
        return self.start <= other.end and other.start <= self.end

    def touches(self, other: "ResolvedRange") -> bool:
        """True when the two ranges overlap or are directly adjacent."""
        return self.start <= other.end + 1 and other.start <= self.end + 1

    def union(self, other: "ResolvedRange") -> "ResolvedRange":
        return ResolvedRange(min(self.start, other.start), max(self.end, other.end))


class RangeSpecifier:
    """A parsed ``Range`` header value: a unit plus one or more specs."""

    __slots__ = ("unit", "specs")

    def __init__(self, specs: Sequence[RangeSpec], unit: str = "bytes") -> None:
        if not specs:
            raise RangeParseError("byte-range-set must contain at least one spec")
        self.unit = unit
        self.specs: Tuple[RangeSpec, ...] = tuple(specs)

    def __len__(self) -> int:
        return len(self.specs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RangeSpecifier):
            return NotImplemented
        return self.unit == other.unit and self.specs == other.specs

    def __repr__(self) -> str:
        return f"RangeSpecifier({self.to_header_value()!r})"

    @property
    def is_multi(self) -> bool:
        return len(self.specs) > 1

    def to_header_value(self) -> str:
        """Serialize back to a ``Range`` header value (no added whitespace)."""
        return f"{self.unit}=" + ",".join(spec.to_string() for spec in self.specs)

    # -- resolution ---------------------------------------------------------

    def resolve(self, complete_length: int) -> List[ResolvedRange]:
        """Resolve every spec against ``complete_length``.

        Unsatisfiable specs are dropped (RFC 7233 §2.1); if *no* spec is
        satisfiable, :class:`RangeNotSatisfiableError` is raised — the
        HTTP 416 condition.
        """
        resolved: List[ResolvedRange] = []
        last_spec: Optional[RangeSpec] = None
        last_result: Optional[ResolvedRange] = None
        for spec in self.specs:
            # Repeated specs parse to a shared instance (see
            # ``parse_range_header``), so an identity memo resolves an
            # n-fold repeat with one computation.
            if spec is not last_spec:
                last_spec = spec
                last_result = spec.resolve(complete_length)
            if last_result:
                resolved.append(last_result)
        if not resolved:
            raise RangeNotSatisfiableError(
                f"no satisfiable ranges in {self.to_header_value()!r} "
                f"for a {complete_length}-byte representation",
                complete_length,
            )
        return resolved

    # -- analysis -----------------------------------------------------------

    def has_overlaps(self, complete_length: int) -> bool:
        """True when two or more satisfiable specs overlap."""
        try:
            resolved = self.resolve(complete_length)
        except RangeNotSatisfiableError:
            return False
        return ranges_overlap(resolved)

    def requested_bytes(self, complete_length: int) -> int:
        """Total bytes the client asked for (double-counting overlaps)."""
        try:
            return sum(r.length for r in self.resolve(complete_length))
        except RangeNotSatisfiableError:
            return 0


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_UNIT_RE = re.compile(r"^([!#$%&'*+.^_`|~0-9A-Za-z-]+)=(.*)$", re.DOTALL)
_BYTE_RANGE_RE = re.compile(r"^(\d+)-(\d*)$")
_SUFFIX_RANGE_RE = re.compile(r"^-(\d+)$")


def parse_range_header(value: str, strict_unit: bool = True) -> RangeSpecifier:
    """Parse a ``Range`` header value per the RFC 7233 grammar.

    Raises :class:`RangeParseError` for anything that does not match the
    ABNF.  When ``strict_unit`` is true (the default), a unit other than
    ``bytes`` is rejected — mirroring how real byte-range servers treat
    unknown units as a parse failure and fall back to a 200 response.
    """
    if value is None:
        raise RangeParseError("Range header value is None")
    match = _UNIT_RE.match(value.strip(_OWS))
    if not match:
        raise RangeParseError(f"malformed Range header {value!r}")
    unit, range_set = match.group(1), match.group(2)
    if strict_unit and unit != "bytes":
        raise RangeParseError(f"unsupported range unit {unit!r}")
    items = range_set.split(",")
    specs: List[RangeSpec] = []
    last_item: Optional[str] = None
    last_spec: Optional[RangeSpec] = None
    for raw in items:
        item = raw.strip(_OWS)
        if not item:
            # The 1#rule list grammar tolerates empty elements ("a,,b");
            # skip them rather than failing the whole header.
            continue
        # Attack-shaped headers repeat one spec thousands of times
        # ("0-,0-,0-,..."); specs are frozen, so repeats can share one
        # instance instead of re-running the grammar per element.
        if item == last_item and last_spec is not None:
            specs.append(last_spec)
            continue
        last_spec = _parse_spec(item, value)
        last_item = item
        specs.append(last_spec)
    if not specs:
        raise RangeParseError(f"empty byte-range-set in {value!r}")
    return RangeSpecifier(specs, unit=unit)


def _parse_spec(item: str, original: str) -> RangeSpec:
    byte_match = _BYTE_RANGE_RE.match(item)
    if byte_match:
        first = int(byte_match.group(1))
        last_raw = byte_match.group(2)
        last = int(last_raw) if last_raw else None
        if last is not None and last < first:
            raise RangeParseError(
                f"last-byte-pos {last} precedes first-byte-pos {first} in {original!r}"
            )
        return ByteRangeSpec(first, last)
    suffix_match = _SUFFIX_RANGE_RE.match(item)
    if suffix_match:
        return SuffixByteRangeSpec(int(suffix_match.group(1)))
    raise RangeParseError(f"malformed byte-range-spec {item!r} in {original!r}")


def try_parse_range_header(value: Optional[str]) -> Optional[RangeSpecifier]:
    """Like :func:`parse_range_header` but returns ``None`` on any failure.

    Matches the RFC 7233 requirement that a recipient MUST ignore a Range
    header it cannot parse (serving a 200 instead of erroring).
    """
    if value is None:
        return None
    try:
        return parse_range_header(value)
    except RangeParseError:
        return None


# ---------------------------------------------------------------------------
# Content-Range
# ---------------------------------------------------------------------------

_CONTENT_RANGE_RE = re.compile(r"^bytes (\d+)-(\d+)/(\d+|\*)$")
_CONTENT_RANGE_UNSAT_RE = re.compile(r"^bytes \*/(\d+)$")


def format_content_range(start: int, end: int, complete_length: Optional[int]) -> str:
    """Build a ``Content-Range`` value, e.g. ``bytes 0-0/1000``.

    ``complete_length=None`` produces the unknown-length form
    ``bytes 0-0/*``.
    """
    if start < 0 or end < start:
        raise ValueError(f"invalid content range [{start}, {end}]")
    suffix = "*" if complete_length is None else str(complete_length)
    return f"bytes {start}-{end}/{suffix}"


def format_unsatisfied_content_range(complete_length: int) -> str:
    """Build the 416-response form, ``bytes */N``."""
    return f"bytes */{complete_length}"


def parse_content_range(value: str) -> Tuple[Optional[ResolvedRange], Optional[int]]:
    """Parse a ``Content-Range`` value.

    Returns ``(range, complete_length)``; ``range`` is ``None`` for the
    unsatisfied ``bytes */N`` form, and ``complete_length`` is ``None``
    for the ``/*`` unknown-length form.
    """
    match = _CONTENT_RANGE_RE.match(value.strip())
    if match:
        start, end = int(match.group(1)), int(match.group(2))
        if end < start:
            raise RangeParseError(f"malformed Content-Range {value!r}")
        length_raw = match.group(3)
        complete = None if length_raw == "*" else int(length_raw)
        return ResolvedRange(start, end), complete
    unsat = _CONTENT_RANGE_UNSAT_RE.match(value.strip())
    if unsat:
        return None, int(unsat.group(1))
    raise RangeParseError(f"malformed Content-Range {value!r}")


# ---------------------------------------------------------------------------
# Range-set analysis helpers
# ---------------------------------------------------------------------------

def ranges_overlap(resolved: Sequence[ResolvedRange]) -> bool:
    """True when any two resolved ranges overlap."""
    ordered = sorted(resolved)
    return any(a.overlaps(b) for a, b in zip(ordered, ordered[1:]))


def range_runs(resolved: Sequence[ResolvedRange]) -> List[Tuple[ResolvedRange, int]]:
    """Group consecutive equal ranges into ``(range, count)`` runs.

    Repeated specs resolve to one shared instance (see
    :meth:`RangeSpecifier.resolve`), so the identity test settles the
    OBR shape -- thousands of ``0-`` ranges -- without comparing fields.
    """
    runs: List[Tuple[ResolvedRange, int]] = []
    current: Optional[ResolvedRange] = None
    count = 0
    for r in resolved:
        if r is current or r == current:
            count += 1
            continue
        if current is not None:
            runs.append((current, count))
        current, count = r, 1
    if current is not None:
        runs.append((current, count))
    return runs


def coalesce_ranges(resolved: Sequence[ResolvedRange]) -> List[ResolvedRange]:
    """Merge overlapping or adjacent ranges into a minimal sorted set.

    This is the "coalesce" mitigation RFC 7233 §6.1 suggests for
    many-small-ranges requests.
    """
    if not resolved:
        return []
    ordered = sorted(resolved)
    merged = [ordered[0]]
    for current in ordered[1:]:
        if merged[-1].touches(current):
            merged[-1] = merged[-1].union(current)
        else:
            merged.append(current)
    return merged


def covering_span(resolved: Sequence[ResolvedRange]) -> ResolvedRange:
    """The smallest single range covering every range in the set."""
    if not resolved:
        raise ValueError("cannot span an empty range set")
    return ResolvedRange(min(r.start for r in resolved), max(r.end for r in resolved))


def total_resolved_bytes(resolved: Sequence[ResolvedRange]) -> int:
    """Sum of range lengths, double-counting overlaps (wire bytes sent)."""
    return sum(r.length for r in resolved)


def distinct_resolved_bytes(resolved: Sequence[ResolvedRange]) -> int:
    """Bytes of the representation actually covered (overlaps counted once)."""
    return sum(r.length for r in coalesce_ranges(resolved))
