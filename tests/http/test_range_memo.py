"""Each distinct Range value is built once and parsed once per process.

``parse_range_header`` and ``overlapping_open_ranges_value`` answer a
repeated input from bounded named memos.  A cached answer must be
indistinguishable from a fresh one, a failure must never be stored, and
a shared parse must not be mutable by the caller that received it.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RangeParseError
from repro.http import grammar, ranges
from repro.http.grammar import RangeCorpusGenerator, overlapping_open_ranges_value
from repro.http.ranges import ByteRangeSpec, parse_range_header, try_parse_range_header
from repro.obs.memo import clear_all_memos, memo_stats


@pytest.fixture(autouse=True)
def cold():
    clear_all_memos()
    yield
    clear_all_memos()


_spec = st.one_of(
    st.tuples(
        st.integers(min_value=0, max_value=10_000),
        st.one_of(st.none(), st.integers(min_value=0, max_value=10_000)),
    ).map(lambda t: f"{t[0]}-" if t[1] is None else f"{t[0]}-{t[0] + t[1]}"),
    st.integers(min_value=0, max_value=10_000).map(lambda n: f"-{n}"),
)

#: Valid values: any spec list (repeats included), optional whitespace
#: after commas, and the OBR shapes with their leading specs.
_values = st.one_of(
    st.tuples(
        st.lists(_spec, min_size=1, max_size=8),
        st.sampled_from([",", ", ", ",\t"]),
    ).map(lambda t: "bytes=" + t[1].join(t[0])),
    st.tuples(
        st.integers(min_value=1, max_value=3_000),
        st.sampled_from([None, "-1024", "1-", "5-9"]),
    ).map(lambda t: overlapping_open_ranges_value(*t)),
)


class TestParseMemo:
    @given(value=_values, strict_unit=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_a_cached_parse_equals_a_fresh_one(self, value, strict_unit):
        first = parse_range_header(value, strict_unit)
        cached = parse_range_header(value, strict_unit)
        fresh = ranges._parse(value, strict_unit)
        assert cached is first
        assert cached is not fresh
        assert cached == fresh
        assert cached.runs == fresh.runs
        assert cached.unit == fresh.unit
        assert len(cached) == len(fresh)
        assert cached.to_header_value() == fresh.to_header_value()
        assert try_parse_range_header(value) == fresh

    def test_the_unit_mode_is_part_of_the_key(self):
        lenient = parse_range_header("items=0-5", strict_unit=False)
        assert lenient.unit == "items"
        with pytest.raises(RangeParseError, match="unsupported range unit"):
            parse_range_header("items=0-5")
        assert parse_range_header("items=0-5", strict_unit=False) is lenient

    def test_a_malformed_value_raises_on_every_call_and_is_never_stored(self):
        invalid = RangeCorpusGenerator().invalid_cases()
        for value in invalid:
            messages = set()
            for _ in range(3):
                with pytest.raises(RangeParseError) as caught:
                    parse_range_header(value)
                messages.add(str(caught.value))
                assert try_parse_range_header(value) is None
            assert len(messages) == 1
            assert (value, True) not in ranges._PARSED
        assert len(ranges._PARSED) == 0
        assert memo_stats()["range_parse"].hits == 0

    def test_a_shared_specifier_rejects_attribute_assignment(self):
        spec = parse_range_header("bytes=0-,0-,0-")
        with pytest.raises(AttributeError):
            spec.unit = "items"
        with pytest.raises(AttributeError):
            spec.runs = ((ByteRangeSpec(0, 0), 1),)
        with pytest.raises(AttributeError):
            del spec.runs
        with pytest.raises(AttributeError):
            spec.extra = 1
        again = parse_range_header("bytes=0-,0-,0-")
        assert again is spec
        assert again.unit == "bytes"
        assert again.runs == ((ByteRangeSpec(0, None), 3),)

    def test_the_table_is_bounded_in_entries(self):
        for first in range(3 * ranges.CACHED_VALUES):
            parse_range_header(f"bytes={first}-")
        assert len(ranges._PARSED) == ranges.CACHED_VALUES
        stats = memo_stats()["range_parse"]
        assert stats.evictions == 2 * ranges.CACHED_VALUES

    def test_a_long_value_is_parsed_but_not_stored(self):
        parts = (ranges.CACHED_VALUE_CHARS + 2) // 3 + 1
        value = overlapping_open_ranges_value(parts)
        assert len(value) > ranges.CACHED_VALUE_CHARS
        assert len(parse_range_header(value)) == parts
        assert len(ranges._PARSED) == 0
        assert memo_stats()["range_parse"].lookups == 0

    def test_a_parse_with_many_runs_is_not_stored(self):
        many = "bytes=" + ",".join(f"{i}-{i}" for i in range(ranges.CACHED_RUNS + 1))
        few = "bytes=" + ",".join(f"{i}-{i}" for i in range(ranges.CACHED_RUNS))
        assert len(parse_range_header(many).runs) == ranges.CACHED_RUNS + 1
        assert len(parse_range_header(few).runs) == ranges.CACHED_RUNS
        assert (many, True) not in ranges._PARSED
        assert (few, True) in ranges._PARSED
        assert parse_range_header(many) == ranges._parse(many, True)


class TestValueMemo:
    @given(
        count=st.integers(min_value=1, max_value=12_000),
        leading=st.sampled_from([None, "-1024", "1-"]),
    )
    @settings(max_examples=100, deadline=None)
    def test_a_cached_value_equals_a_fresh_join(self, count, leading):
        first = overlapping_open_ranges_value(count, leading)
        cached = overlapping_open_ranges_value(count, leading)
        specs = ["0-"] * count
        if leading is not None:
            specs[0] = leading
        assert cached is first
        assert cached == grammar._join_open_ranges(count, leading)
        assert cached == "bytes=" + ",".join(specs)
        assert len(cached) == grammar.obr_value_size(count, leading)

    def test_a_bad_count_raises_and_is_never_stored(self):
        for _ in range(2):
            with pytest.raises(ValueError):
                overlapping_open_ranges_value(0)
        assert len(grammar._OBR_VALUES) == 0

    def test_the_table_is_bounded_in_entries_and_value_size(self):
        for count in range(1, 2 * ranges.CACHED_VALUES + 1):
            overlapping_open_ranges_value(count)
        assert len(grammar._OBR_VALUES) == ranges.CACHED_VALUES
        huge = ranges.CACHED_VALUE_CHARS // 3 + 2
        assert len(overlapping_open_ranges_value(huge)) > ranges.CACHED_VALUE_CHARS
        assert (huge, None) not in grammar._OBR_VALUES
