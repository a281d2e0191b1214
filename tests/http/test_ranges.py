"""Unit and property tests for the RFC 7233 range grammar."""

import re
from itertools import groupby

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RangeNotSatisfiableError, RangeParseError
from repro.http.ranges import (
    ByteRangeSpec,
    RangeSpecifier,
    ResolvedRange,
    SuffixByteRangeSpec,
    coalesce_ranges,
    format_content_range,
    format_unsatisfied_content_range,
    parse_content_range,
    parse_range_header,
    ranges_overlap,
    try_parse_range_header,
)


def runs_of(items):
    """Maximal ``(item, count)`` runs of equal neighbours."""
    return [(item, len(list(group))) for item, group in groupby(items)]


def expand(runs):
    return [item for item, count in runs for _ in range(count)]


class TestParsing:
    def test_single_closed(self):
        spec = parse_range_header("bytes=0-499")
        assert spec.runs == ((ByteRangeSpec(0, 499), 1),)

    def test_single_open(self):
        spec = parse_range_header("bytes=9500-")
        assert spec.runs == ((ByteRangeSpec(9500, None), 1),)

    def test_suffix(self):
        spec = parse_range_header("bytes=-500")
        assert spec.runs == ((SuffixByteRangeSpec(500), 1),)

    def test_multiple_ranges(self):
        spec = parse_range_header("bytes=0-0,-1")
        assert spec.runs == ((ByteRangeSpec(0, 0), 1), (SuffixByteRangeSpec(1), 1))
        assert spec.is_multi

    def test_optional_whitespace_after_commas(self):
        spec = parse_range_header("bytes=0-0, 5-9,\t-2")
        assert len(spec) == 3

    def test_empty_list_elements_tolerated(self):
        # The #rule list grammar allows "a,,b".
        spec = parse_range_header("bytes=0-0,,5-9")
        assert len(spec) == 2

    def test_rfc_appendix_examples(self):
        # RFC 7233's canonical examples for a 10000-byte representation.
        assert parse_range_header("bytes=0-499").resolve(10000) == [(ResolvedRange(0, 499), 1)]
        assert parse_range_header("bytes=-500").resolve(10000) == [(ResolvedRange(9500, 9999), 1)]
        assert parse_range_header("bytes=9500-").resolve(10000) == [(ResolvedRange(9500, 9999), 1)]

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "bytes=",
            "bytes",
            "0-499",
            "bytes=a-b",
            "bytes=5-3",
            "bytes=--5",
            "bytes=-",
            "bytes=5--9",
            "bytes= 0-0",  # no space allowed between '=' and spec? it is OWS-trimmed per element
        ],
    )
    def test_malformed_rejected(self, bad):
        if bad == "bytes= 0-0":
            # OWS after the comma-separated element is legal; this parses.
            assert parse_range_header(bad).runs == ((ByteRangeSpec(0, 0), 1),)
            return
        with pytest.raises(RangeParseError):
            parse_range_header(bad)

    def test_non_bytes_unit_rejected_when_strict(self):
        with pytest.raises(RangeParseError):
            parse_range_header("items=0-5")

    def test_non_bytes_unit_allowed_when_lenient(self):
        spec = parse_range_header("items=0-5", strict_unit=False)
        assert spec.unit == "items"

    def test_try_parse_returns_none_on_garbage(self):
        assert try_parse_range_header("bytes=oops") is None
        assert try_parse_range_header(None) is None
        assert try_parse_range_header("bytes=0-0") is not None

    def test_round_trip(self):
        value = "bytes=0-0,5-,-200"
        assert parse_range_header(value).to_header_value() == value

    def test_negative_positions_unrepresentable(self):
        with pytest.raises(RangeParseError):
            ByteRangeSpec(-1, 5)
        with pytest.raises(RangeParseError):
            SuffixByteRangeSpec(-1)


class TestResolution:
    def test_closed_range_within_bounds(self):
        assert ByteRangeSpec(2, 5).resolve(10) == ResolvedRange(2, 5)

    def test_last_clamped_to_end(self):
        assert ByteRangeSpec(2, 100).resolve(10) == ResolvedRange(2, 9)

    def test_open_range(self):
        assert ByteRangeSpec(3).resolve(10) == ResolvedRange(3, 9)

    def test_first_past_end_unsatisfiable(self):
        assert ByteRangeSpec(10).resolve(10) is None
        assert ByteRangeSpec(11, 20).resolve(10) is None

    def test_suffix_normal(self):
        assert SuffixByteRangeSpec(3).resolve(10) == ResolvedRange(7, 9)

    def test_suffix_longer_than_file(self):
        assert SuffixByteRangeSpec(100).resolve(10) == ResolvedRange(0, 9)

    def test_suffix_zero_unsatisfiable(self):
        assert SuffixByteRangeSpec(0).resolve(10) is None

    def test_suffix_on_empty_file_unsatisfiable(self):
        assert SuffixByteRangeSpec(5).resolve(0) is None

    def test_specifier_drops_unsatisfiable_specs(self):
        spec = parse_range_header("bytes=0-0,50-60")
        assert spec.resolve(10) == [(ResolvedRange(0, 0), 1)]

    def test_specifier_preserves_order_and_duplicates(self):
        spec = parse_range_header("bytes=5-9,0-0,5-9")
        assert spec.resolve(10) == [
            (ResolvedRange(5, 9), 1),
            (ResolvedRange(0, 0), 1),
            (ResolvedRange(5, 9), 1),
        ]

    def test_all_unsatisfiable_raises_416_condition(self):
        spec = parse_range_header("bytes=50-60")
        with pytest.raises(RangeNotSatisfiableError) as exc_info:
            spec.resolve(10)
        assert exc_info.value.complete_length == 10

    def test_has_overlaps(self):
        assert parse_range_header("bytes=0-,0-").has_overlaps(10)
        assert not parse_range_header("bytes=0-0,5-9").has_overlaps(10)
        assert not parse_range_header("bytes=50-60").has_overlaps(10)

    def test_requested_bytes_double_counts_overlaps(self):
        spec = parse_range_header("bytes=0-,0-")
        assert spec.requested_bytes(10) == 20


class TestResolvedRange:
    def test_length(self):
        assert ResolvedRange(0, 0).length == 1
        assert ResolvedRange(3, 7).length == 5

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            ResolvedRange(5, 3)
        with pytest.raises(ValueError):
            ResolvedRange(-1, 3)

    def test_overlaps(self):
        assert ResolvedRange(0, 5).overlaps(ResolvedRange(5, 9))
        assert not ResolvedRange(0, 4).overlaps(ResolvedRange(5, 9))

    def test_touches_includes_adjacency(self):
        assert ResolvedRange(0, 4).touches(ResolvedRange(5, 9))
        assert not ResolvedRange(0, 3).touches(ResolvedRange(5, 9))

    def test_union(self):
        assert ResolvedRange(0, 4).union(ResolvedRange(3, 9)) == ResolvedRange(0, 9)


class TestAnalysisHelpers:
    def test_coalesce_merges_overlapping(self):
        merged = coalesce_ranges([ResolvedRange(0, 5), ResolvedRange(3, 9)])
        assert merged == [ResolvedRange(0, 9)]

    def test_coalesce_merges_adjacent(self):
        merged = coalesce_ranges([ResolvedRange(0, 4), ResolvedRange(5, 9)])
        assert merged == [ResolvedRange(0, 9)]

    def test_coalesce_keeps_disjoint(self):
        ranges = [ResolvedRange(0, 1), ResolvedRange(5, 9)]
        assert coalesce_ranges(ranges) == ranges

    def test_coalesce_unsorted_input(self):
        merged = coalesce_ranges([ResolvedRange(5, 9), ResolvedRange(0, 6)])
        assert merged == [ResolvedRange(0, 9)]

    def test_coalesce_empty(self):
        assert coalesce_ranges([]) == []

    def test_overlap_over_runs(self):
        # A repeated range overlaps its own copies.
        assert ranges_overlap([(ResolvedRange(0, 9), 2)])
        assert ranges_overlap([(ResolvedRange(0, 5), 1), (ResolvedRange(5, 9), 1)])
        assert not ranges_overlap([(ResolvedRange(5, 9), 1), (ResolvedRange(0, 4), 1)])
        assert not ranges_overlap([(ResolvedRange(0, 9), 1)])

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=100),
                st.integers(min_value=0, max_value=100),
            ).map(lambda t: ResolvedRange(min(t), max(t))),
            min_size=1,
            max_size=10,
        )
    )
    @settings(max_examples=200)
    def test_coalesce_properties(self, ranges):
        merged = coalesce_ranges(ranges)
        # Sorted, non-overlapping, non-adjacent.
        assert merged == sorted(merged)
        for a, b in zip(merged, merged[1:]):
            assert not a.touches(b)
        # Coverage preserved.
        covered = set()
        for r in ranges:
            covered.update(range(r.start, r.end + 1))
        merged_covered = set()
        for r in merged:
            merged_covered.update(range(r.start, r.end + 1))
        assert covered == merged_covered
        # Idempotent.
        assert coalesce_ranges(merged) == merged


class TestContentRange:
    def test_format(self):
        assert format_content_range(0, 0, 1000) == "bytes 0-0/1000"
        assert format_content_range(5, 9, None) == "bytes 5-9/*"

    def test_format_invalid(self):
        with pytest.raises(ValueError):
            format_content_range(5, 3, 10)

    def test_format_unsatisfied(self):
        assert format_unsatisfied_content_range(1000) == "bytes */1000"

    def test_parse_normal(self):
        resolved, complete = parse_content_range("bytes 0-0/1000")
        assert resolved == ResolvedRange(0, 0)
        assert complete == 1000

    def test_parse_unknown_length(self):
        resolved, complete = parse_content_range("bytes 5-9/*")
        assert resolved == ResolvedRange(5, 9)
        assert complete is None

    def test_parse_unsatisfied_form(self):
        resolved, complete = parse_content_range("bytes */1000")
        assert resolved is None
        assert complete == 1000

    @pytest.mark.parametrize(
        "bad",
        ["bytes 5-3/10", "0-0/10", "bytes x-y/10", "bytes */x", "bytes 0-5/10x", "bytes */10x"],
    )
    def test_parse_malformed(self, bad):
        with pytest.raises(RangeParseError):
            parse_content_range(bad)

    def test_round_trip(self):
        value = format_content_range(3, 9, 100)
        resolved, complete = parse_content_range(value)
        assert (resolved, complete) == (ResolvedRange(3, 9), 100)


# ---------------------------------------------------------------------------
# Property tests over the whole grammar
# ---------------------------------------------------------------------------

_spec_strategy = st.one_of(
    st.tuples(
        st.integers(min_value=0, max_value=10_000),
        st.one_of(st.none(), st.integers(min_value=0, max_value=10_000)),
    ).map(
        lambda t: ByteRangeSpec(t[0], None if t[1] is None else max(t[0], t[1]))
    ),
    st.integers(min_value=0, max_value=10_000).map(SuffixByteRangeSpec),
)


class TestGrammarProperties:
    @given(specs=st.lists(_spec_strategy, min_size=1, max_size=8))
    @settings(max_examples=300)
    def test_format_parse_round_trip(self, specs):
        original = RangeSpecifier(runs_of(specs))
        parsed = parse_range_header(original.to_header_value())
        assert parsed == original
        assert len(parsed) == len(specs)

    @given(
        specs=st.lists(_spec_strategy, min_size=1, max_size=8),
        length=st.integers(min_value=0, max_value=20_000),
    )
    @settings(max_examples=300)
    def test_resolution_stays_in_bounds(self, specs, length):
        specifier = RangeSpecifier(runs_of(specs))
        try:
            resolved = specifier.resolve(length)
        except RangeNotSatisfiableError:
            return
        assert resolved
        for r, _ in resolved:
            assert 0 <= r.start <= r.end < length


# ---------------------------------------------------------------------------
# DIGIT is ASCII 0-9
# ---------------------------------------------------------------------------


class TestAsciiDigits:
    """RFC 5234 DIGIT is %x30-39: other scripts' digits and a trailing
    newline make the header unparseable, so it is ignored (a 200)."""

    @pytest.mark.parametrize(
        "value",
        [
            "bytes=\u0660-\u0665",  # Arabic-Indic digits
            "bytes=\uff10-\uff15",  # fullwidth digits
            "bytes=-\u0665",
            "bytes=0-\u0665",
            "bytes=\u00b2-",  # superscript two
            "bytes=0-5\n,7-9",
            "bytes=0-5\n",
            "bytes=-5\n",
            "bytes=0-5,7-9\n",
            "bytes=+1-5",
            "bytes=1_0-20",
        ],
    )
    def test_range_header_ignored(self, value):
        with pytest.raises(RangeParseError):
            parse_range_header(value)
        assert try_parse_range_header(value) is None

    @pytest.mark.parametrize(
        "value",
        [
            "bytes \u0660-\u0665/10",
            "bytes \uff10-\uff15/10",
            "bytes 0-5/\u0661\u0660",
            "bytes */\u0661\u0660",
            "bytes 0-5\n/10",
        ],
    )
    def test_content_range_rejected(self, value):
        with pytest.raises(RangeParseError):
            parse_content_range(value)

    def test_ascii_digits_still_parse(self):
        assert parse_range_header("bytes=0-5,7-9").runs == (
            (ByteRangeSpec(0, 5), 1),
            (ByteRangeSpec(7, 9), 1),
        )
        assert parse_content_range("bytes 0-5/10") == (ResolvedRange(0, 5), 10)


# ---------------------------------------------------------------------------
# The run representation against the spec-by-spec parser it replaced
# ---------------------------------------------------------------------------

_REF_UNIT_RE = re.compile(r"([!#$%&'*+.^_`|~0-9A-Za-z-]+)=(.*)", re.DOTALL)
_REF_BYTE_RANGE_RE = re.compile(r"([0-9]+)-([0-9]*)")
_REF_SUFFIX_RANGE_RE = re.compile(r"-([0-9]+)")


def reference_parse(value, strict_unit=True):
    """The item-by-item parser: split, strip and match every element.

    Returns ``(unit, [spec, ...])`` or raises :class:`RangeParseError`
    with the parser's messages.
    """
    match = _REF_UNIT_RE.fullmatch(value.strip(" \t"))
    if not match:
        raise RangeParseError(f"malformed Range header {value!r}")
    unit, range_set = match.group(1), match.group(2)
    if strict_unit and unit != "bytes":
        raise RangeParseError(f"unsupported range unit {unit!r}")
    specs = []
    for raw in range_set.split(","):
        item = raw.strip(" \t")
        if not item:
            continue
        byte_match = _REF_BYTE_RANGE_RE.fullmatch(item)
        if byte_match:
            first = int(byte_match.group(1))
            last = int(byte_match.group(2)) if byte_match.group(2) else None
            if last is not None and last < first:
                raise RangeParseError(
                    f"last-byte-pos {last} precedes first-byte-pos {first} in {value!r}"
                )
            specs.append(ByteRangeSpec(first, last))
            continue
        suffix_match = _REF_SUFFIX_RANGE_RE.fullmatch(item)
        if suffix_match:
            specs.append(SuffixByteRangeSpec(int(suffix_match.group(1))))
            continue
        raise RangeParseError(f"malformed byte-range-spec {item!r} in {value!r}")
    if not specs:
        raise RangeParseError(f"empty byte-range-set in {value!r}")
    return unit, specs


_ELEMENTS = st.sampled_from(
    [
        "0-", "00-", "0-0", "000-0", "1-2", "01-2", "5-9", "0-63", "60-",
        "-3", "-03", "-0", "-64", "10-", "1-", "5-3", "a-b", "-", "--5",
        "5--9", "1", "", " ", "\t", " 0- ", "\t-3", "0 -", "\u0660-",
        "0-5\n", "0-\uff15",
    ]
)
_UNITS = st.sampled_from(["bytes", "bytes", "bytes", "items", "BYTES", "by tes", ""])


@st.composite
def range_headers(draw):
    """Header values of repeated, spaced, empty, open, closed, suffix and
    malformed elements; long repeats cross into the run-scanning path."""
    runs = draw(
        st.lists(
            st.tuples(_ELEMENTS, st.integers(min_value=1, max_value=150)),
            min_size=0,
            max_size=6,
        )
    )
    separator = draw(st.sampled_from([",", ",", ", ", " ,", ",\t"]))
    range_set = separator.join(element for element, count in runs for _ in range(count))
    padding = draw(st.sampled_from(["", " ", "\t "]))
    equals = draw(st.sampled_from(["=", "=", "=", ":", ""]))
    return f"{padding}{draw(_UNITS)}{equals}{range_set}{padding}"


def _outcome(parse, value, strict_unit):
    try:
        return parse(value, strict_unit), None
    except RangeParseError as exc:
        return None, str(exc)


class TestRunsMatchSpecBySpec:
    @given(value=range_headers(), strict_unit=st.booleans())
    @settings(max_examples=600, deadline=None)
    def test_parse_matches_reference(self, value, strict_unit):
        parsed, error = _outcome(parse_range_header, value, strict_unit)
        reference, reference_error = _outcome(reference_parse, value, strict_unit)
        assert error == reference_error
        if reference is None:
            return
        unit, specs = reference
        assert parsed.unit == unit
        assert expand(parsed.runs) == specs
        assert len(parsed) == len(specs)
        assert parsed.is_multi == (len(specs) > 1)
        assert parsed.first == specs[0]
        assert parsed.to_header_value() == f"{unit}=" + ",".join(s.to_string() for s in specs)
        # Canonical: maximal runs, so equal spec lists compare equal.
        assert list(parsed.runs) == runs_of(specs)
        assert parsed == RangeSpecifier(runs_of(specs), unit)

    @given(value=range_headers(), length=st.integers(min_value=0, max_value=80))
    @settings(max_examples=400, deadline=None)
    def test_resolve_matches_spec_by_spec(self, value, length):
        parsed = try_parse_range_header(value)
        if parsed is None:
            return
        windows = [w for w in (s.resolve(length) for s in expand(parsed.runs)) if w]
        try:
            resolved = parsed.resolve(length)
        except RangeNotSatisfiableError as exc:
            assert windows == []
            assert exc.complete_length == length
            return
        assert expand(resolved) == windows
        assert resolved == runs_of(windows)
        assert parsed.requested_bytes(length) == sum(w.length for w in windows)

    def test_attack_header_is_one_run(self):
        value = "bytes=-1024," + ",".join(["0-"] * 10_750)
        parsed = parse_range_header(value)
        assert parsed.runs == ((SuffixByteRangeSpec(1024), 1), (ByteRangeSpec(0), 10_750))
        assert len(parsed) == 10_751
        assert parsed.to_header_value() == value
        assert parsed.resolve(1000) == [(ResolvedRange(0, 999), 10_751)]

    @pytest.mark.parametrize(
        "value, runs",
        [
            # A near-repeat is not a repeat: "0-5" starts like "0-".
            ("bytes=" + ",".join(["0-"] * 200) + ",0-5", [("0-", 200), ("0-5", 1)]),
            # Equal specs spelled differently still merge.
            ("bytes=" + ",".join(["0-"] * 100 + ["00-"] * 100), [("0-", 200)]),
            ("bytes=" + ", ".join(["0-"] * 150), [("0-", 150)]),
            ("bytes=" + ",".join(["0-", ""] * 150), [("0-", 150)]),
        ],
    )
    def test_long_sets_scan_into_runs(self, value, runs):
        parsed = parse_range_header(value)
        assert [(s.to_string(), count) for s, count in parsed.runs] == runs
