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

Each distinct value is parsed once per process.  The OBR max-n search
probes each cascade at ``n`` and ``n + 1`` and every probe hands the
same 10,000-part value to the front's limits, its decision table and
the back's limits, so a cold audit asks 430 times for the parse of 24
distinct values.  :func:`parse_range_header` answers a repeated ``(value,
strict_unit)`` from the named memo ``range_parse``: at most
:data:`CACHED_VALUES` entries, each a value of at most
:data:`CACHED_VALUE_CHARS` characters that parsed into at most
:data:`CACHED_RUNS` runs (larger ones are parsed on every call), so the
table holds under ~10 MB even when filled adversarially (a value that
parses is ASCII, one byte a character).  Only successful parses are
stored: a malformed value raises the same
:class:`~repro.errors.RangeParseError` on every call.  Sharing one
parse between callers and threads is safe because a
:class:`RangeSpecifier` is immutable (assigning ``unit`` or ``runs``
raises) and its specs are frozen.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from repro.errors import RangeNotSatisfiableError, RangeParseError
from repro.http.headers import TOKEN_RE, parse_decimal
from repro.obs.memo import Memo

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


#: One run of a parsed ``Range`` header: a spec and how many times it
#: repeats in a row.
SpecRun = Tuple[RangeSpec, int]
#: One run of resolved ranges: a window and how many times it repeats.
RangeRun = Tuple[ResolvedRange, int]


class RangeSpecifier:
    """A parsed ``Range`` header value: a unit plus one or more specs.

    The specs are held as maximal runs ``((spec, count), ...)`` of equal
    consecutive specs.  Attack-shaped headers repeat one spec thousands
    of times ("0-,0-,0-,..."), and as runs they parse, resolve and pass
    the limit checks in time proportional to the number of runs, not of
    specs.  Runs are canonical -- neighbouring specs differ and every
    count is at least 1 -- so ``==``, ``len()`` (the number of specs) and
    :meth:`to_header_value` agree with the spec-by-spec list.
    :func:`parse_range_header` builds them that way, and so must any
    other caller.

    Immutable: :func:`parse_range_header` hands one instance to every
    caller of the same value, so assigning an attribute raises.
    """

    __slots__ = ("unit", "runs")

    unit: str
    runs: Tuple[SpecRun, ...]

    def __init__(self, runs: Sequence[SpecRun], unit: str = "bytes") -> None:
        if not runs:
            raise RangeParseError("byte-range-set must contain at least one spec")
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "runs", tuple(runs))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"RangeSpecifier is immutable; cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"RangeSpecifier is immutable; cannot delete {name!r}")

    def __len__(self) -> int:
        return sum(count for _, count in self.runs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RangeSpecifier):
            return NotImplemented
        return self.unit == other.unit and self.runs == other.runs

    def __repr__(self) -> str:
        return f"RangeSpecifier({self.to_header_value()!r})"

    @property
    def first(self) -> RangeSpec:
        """The leading spec, the one vendor policy tables switch on."""
        return self.runs[0][0]

    @property
    def is_multi(self) -> bool:
        return len(self.runs) > 1 or self.runs[0][1] > 1

    def to_header_value(self) -> str:
        """Serialize back to a ``Range`` header value (no added whitespace)."""
        return f"{self.unit}=" + ",".join(
            ",".join([spec.to_string()] * count) for spec, count in self.runs
        )

    # -- resolution ---------------------------------------------------------

    def resolve(self, complete_length: int) -> List[RangeRun]:
        """Resolve every run against ``complete_length``.

        Unsatisfiable specs are dropped (RFC 7233 §2.1) and equal
        neighbouring windows merge into one run; if *no* spec is
        satisfiable, :class:`RangeNotSatisfiableError` is raised — the
        HTTP 416 condition.
        """
        resolved: List[RangeRun] = []
        for spec, count in self.runs:
            window = spec.resolve(complete_length)
            if window is None:
                continue
            if resolved and resolved[-1][0] == window:
                resolved[-1] = (window, resolved[-1][1] + count)
            else:
                resolved.append((window, count))
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
            resolved = self.resolve(complete_length)
        except RangeNotSatisfiableError:
            return 0
        return sum(window.length * count for window, count in resolved)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

#: Range sets up to this many characters are split in one call; longer
#: ones -- the OBR attack's thousands of repeats -- are scanned run by run.
_SPLIT_CHARS = 256

#: Bounds of the ``range_parse`` memo: entries, and the largest value
#: (in characters) and parse (in runs) an entry may hold.  An OBR value
#: at the largest overlap count any entry point accepts is ~96 KB and
#: one or two runs.
CACHED_VALUES = 64
CACHED_VALUE_CHARS = 1 << 17
CACHED_RUNS = 64

#: Successful parses, by ``(value, strict_unit)``.
_PARSED = Memo(maxsize=CACHED_VALUES, name="range_parse")


def parse_range_header(value: str, strict_unit: bool = True) -> RangeSpecifier:
    """Parse a ``Range`` header value per the RFC 7233 grammar.

    Raises :class:`RangeParseError` for anything that does not match the
    ABNF.  When ``strict_unit`` is true (the default), a unit other than
    ``bytes`` is rejected — mirroring how real byte-range servers treat
    unknown units as a parse failure and fall back to a 200 response.

    A repeated value is answered with the shared, immutable
    :class:`RangeSpecifier` parsed on its first call (see the module
    docstring for the bounds); a value that fails raises every time.
    """
    if value is None:
        raise RangeParseError("Range header value is None")
    if len(value) > CACHED_VALUE_CHARS:
        return _parse(value, strict_unit)
    spec: RangeSpecifier = _PARSED.get_or_compute(
        (value, strict_unit), lambda: _parse(value, strict_unit), _few_runs
    )
    return spec


def _few_runs(spec: RangeSpecifier) -> bool:
    return len(spec.runs) <= CACHED_RUNS


def _parse(value: str, strict_unit: bool) -> RangeSpecifier:
    """The uncached parse behind :func:`parse_range_header`."""
    unit, equals, range_set = value.strip(_OWS).partition("=")
    if not equals or (unit != "bytes" and not TOKEN_RE.fullmatch(unit)):
        raise RangeParseError(f"malformed Range header {value!r}")
    if strict_unit and unit != "bytes":
        raise RangeParseError(f"unsupported range unit {unit!r}")
    if len(range_set) > _SPLIT_CHARS:
        runs = _scan_runs(range_set, value)
    else:
        runs = []
        last_item: Optional[str] = None
        for raw in range_set.split(","):
            item = raw.strip(_OWS)
            if not item:
                # The 1#rule list grammar tolerates empty elements
                # ("a,,b"); skip them rather than failing the header.
                continue
            if item == last_item:
                runs[-1] = (runs[-1][0], runs[-1][1] + 1)
            else:
                last_item = item
                _add_run(runs, _parse_spec(item, value), 1)
    if not runs:
        raise RangeParseError(f"empty byte-range-set in {value!r}")
    return RangeSpecifier(runs, unit)


def _scan_runs(range_set: str, value: str) -> List[SpecRun]:
    """Parse a long range set run by run.

    Attack-shaped headers repeat one element thousands of times
    ("0-,0-,0-,..."): the set is walked element by element only until an
    element repeats, and the copies that follow are counted with C-level
    string compares instead of being visited one by one.
    """
    runs: List[SpecRun] = []
    last_raw: Optional[str] = None
    last_item: Optional[str] = None
    pos, size = 0, len(range_set)
    while pos <= size:
        comma = range_set.find(",", pos)
        if comma < 0:
            comma = size
        raw = range_set[pos:comma]
        count = 1
        if raw == last_raw:
            count, comma = _repeats(range_set, "," + raw, comma)
        last_raw, pos = raw, comma + 1
        item = raw.strip(_OWS)
        if not item:
            continue
        if item == last_item:
            runs[-1] = (runs[-1][0], runs[-1][1] + count)
        else:
            last_item = item
            _add_run(runs, _parse_spec(item, value), count)
    return runs


def _add_run(runs: List[SpecRun], spec: RangeSpec, count: int) -> None:
    """Append ``count`` copies of ``spec``, merging into the last run when
    it holds an equal spec spelled differently ("0-,00-"), so that runs
    stay canonical."""
    if runs and runs[-1][0] == spec:
        runs[-1] = (spec, runs[-1][1] + count)
    else:
        runs.append((spec, count))


def _repeats(range_set: str, token: str, at: int) -> Tuple[int, int]:
    """Count a copy of an element and the whole copies that follow it.

    ``token`` is ``"," + element`` and ``at`` is the end of the copy.
    Returns ``(count, end)`` with ``end`` just past the last whole copy
    (a comma or the end of ``range_set``).  Matches gallop by doubling,
    so n copies cost O(log n) compares.
    """
    count, step, width = 1, 1, len(token)
    while range_set.startswith(token * step, at):
        at += width * step
        count += step
        step *= 2
    while step > 1:
        step //= 2
        if range_set.startswith(token * step, at):
            at += width * step
            count += step
    # Each matched copy but the last is followed by the next one's comma;
    # the last must end its element too ("0-,0-5" is no repeat).
    if count > 1 and at < len(range_set) and range_set[at] != ",":
        at -= width
        count -= 1
    return count, at


def _parse_spec(item: str, original: str) -> RangeSpec:
    first_raw, dash, last_raw = item.partition("-")
    if dash and not first_raw:
        suffix = parse_decimal(last_raw)
        if suffix is not None:
            return SuffixByteRangeSpec(suffix)
    elif dash:
        first = parse_decimal(first_raw)
        last = parse_decimal(last_raw) if last_raw else None
        if first is not None and (last is not None or not last_raw):
            if last is not None and last < first:
                raise RangeParseError(
                    f"last-byte-pos {last} precedes first-byte-pos {first} in {original!r}"
                )
            return ByteRangeSpec(first, last)
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

_CONTENT_RANGE_RE = re.compile(r"bytes ([0-9]+)-([0-9]+)/([0-9]+|\*)")
_CONTENT_RANGE_UNSAT_RE = re.compile(r"bytes \*/([0-9]+)")


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
    stripped = value.strip()
    match = _CONTENT_RANGE_RE.fullmatch(stripped)
    if match:
        start, end = int(match.group(1)), int(match.group(2))
        if end < start:
            raise RangeParseError(f"malformed Content-Range {value!r}")
        length_raw = match.group(3)
        complete = None if length_raw == "*" else int(length_raw)
        return ResolvedRange(start, end), complete
    unsat = _CONTENT_RANGE_UNSAT_RE.fullmatch(stripped)
    if unsat:
        return None, int(unsat.group(1))
    raise RangeParseError(f"malformed Content-Range {value!r}")


# ---------------------------------------------------------------------------
# Range-set analysis helpers
# ---------------------------------------------------------------------------

def ranges_overlap(resolved: Sequence[RangeRun]) -> bool:
    """True when any two resolved ranges overlap (a repeat overlaps itself)."""
    if any(count > 1 for _, count in resolved):
        return True
    ordered = sorted(window for window, _ in resolved)
    return any(a.overlaps(b) for a, b in zip(ordered, ordered[1:]))


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
