"""Unit and property tests for the body model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.http.body import (
    Body,
    BytesBody,
    CompositeBody,
    RepeatedBody,
    SyntheticBody,
    make_body,
)


class TestBytesBody:
    def test_length_and_materialize(self):
        body = BytesBody(b"hello")
        assert len(body) == 5
        assert body.materialize() == b"hello"

    def test_slice(self):
        body = BytesBody(b"hello world")
        assert body.slice(6, 11).materialize() == b"world"

    def test_slice_clamps(self):
        body = BytesBody(b"abc")
        assert body.slice(-5, 100).materialize() == b"abc"
        assert body.slice(2, 1).materialize() == b""

    def test_first(self):
        assert BytesBody(b"abcdef").first(3).materialize() == b"abc"

    def test_equality(self):
        assert BytesBody(b"ab") == BytesBody(b"ab")
        assert BytesBody(b"ab") != BytesBody(b"ac")


class TestSyntheticBody:
    def test_length_without_allocation(self):
        body = SyntheticBody(25 * 1024 * 1024)
        assert len(body) == 25 * 1024 * 1024

    def test_materialize_small(self):
        body = SyntheticBody(5, pattern=b"ab")
        assert body.materialize() == b"ababa"

    def test_slice_shifts_offset(self):
        body = SyntheticBody(10, pattern=b"abcd")
        assert body.slice(2, 6).materialize() == body.materialize()[2:6]

    def test_nested_slices(self):
        body = SyntheticBody(100, pattern=b"0123456789")
        once = body.slice(13, 77)
        twice = once.slice(5, 20)
        assert twice.materialize() == body.materialize()[18:33]

    def test_byte_at(self):
        body = SyntheticBody(10, pattern=b"xyz")
        full = body.materialize()
        assert all(body.byte_at(i) == full[i] for i in range(10))

    def test_byte_at_out_of_range(self):
        with pytest.raises(IndexError):
            SyntheticBody(3).byte_at(3)

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            SyntheticBody(-1)

    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError):
            SyntheticBody(5, pattern=b"")

    def test_materialize_limit(self):
        huge = SyntheticBody(SyntheticBody.MATERIALIZE_LIMIT + 1)
        with pytest.raises(MemoryError):
            huge.materialize()

    def test_equals_bytes_body_with_same_content(self):
        synthetic = SyntheticBody(6, pattern=b"ab")
        assert synthetic == BytesBody(b"ababab")

    @given(
        length=st.integers(min_value=0, max_value=500),
        start=st.integers(min_value=-10, max_value=510),
        stop=st.integers(min_value=-10, max_value=510),
        pattern=st.binary(min_size=1, max_size=16),
    )
    @settings(max_examples=200)
    def test_slice_consistency_property(self, length, start, stop, pattern):
        """Slicing a synthetic body must equal slicing its materialization."""
        body = SyntheticBody(length, pattern=pattern)
        expected_start = max(0, min(start, length))
        expected_stop = max(expected_start, min(stop, length))
        assert (
            body.slice(start, stop).materialize()
            == body.materialize()[expected_start:expected_stop]
        )


class TestCompositeBody:
    def test_concatenation(self):
        body = CompositeBody([b"ab", BytesBody(b"cd"), SyntheticBody(2, pattern=b"x")])
        assert len(body) == 6
        assert body.materialize() == b"abcdxx"

    def test_empty(self):
        body = CompositeBody()
        assert len(body) == 0
        assert body.materialize() == b""

    def test_slice_across_parts(self):
        body = CompositeBody([b"abc", b"def", b"ghi"])
        assert body.slice(2, 7).materialize() == b"cdefg"

    def test_slice_within_one_part(self):
        body = CompositeBody([b"abc", b"def"])
        assert body.slice(4, 5).materialize() == b"e"

    def test_nested_composites(self):
        inner = CompositeBody([b"ab", b"cd"])
        outer = CompositeBody([b"__", inner, b"!!"])
        assert outer.materialize() == b"__abcd!!"

    @given(
        chunks=st.lists(st.binary(max_size=20), max_size=8),
        start=st.integers(min_value=-5, max_value=200),
        stop=st.integers(min_value=-5, max_value=200),
    )
    @settings(max_examples=200)
    def test_slice_property(self, chunks, start, stop):
        body = CompositeBody(chunks)
        joined = b"".join(chunks)
        expected_start = max(0, min(start, len(joined)))
        expected_stop = max(expected_start, min(stop, len(joined)))
        assert (
            body.slice(start, stop).materialize()
            == joined[expected_start:expected_stop]
        )


def _clamped(blob: bytes, start: int, stop: int) -> bytes:
    start = max(0, min(start, len(blob)))
    return blob[start:max(start, min(stop, len(blob)))]


_UNITS = st.one_of(
    st.binary(max_size=12).map(BytesBody),
    st.tuples(st.integers(0, 40), st.integers(0, 255)).map(
        lambda t: SyntheticBody(t[0], offset=t[1])
    ),
    st.lists(st.binary(max_size=6), max_size=4).map(CompositeBody),
)


class TestRepeatedBody:
    def test_length_and_materialize(self):
        body = RepeatedBody(BytesBody(b"abc"), 4)
        assert len(body) == 12
        assert body.materialize() == b"abc" * 4

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            RepeatedBody(BytesBody(b"a"), -1)

    def test_empty_unit_and_zero_count(self):
        assert RepeatedBody(BytesBody(b""), 5).slice(0, 3).materialize() == b""
        assert len(RepeatedBody(BytesBody(b"ab"), 0)) == 0

    def test_slice_is_head_middle_tail(self):
        # A cut through thousands of units costs three pieces, not
        # thousands: the partial unit at each end plus one shorter repeat.
        body = RepeatedBody(SyntheticBody(1000), 10_000)
        sliced = body.slice(1500, 9_000_250)
        assert isinstance(sliced, CompositeBody)
        head, middle, tail = sliced.parts
        assert (len(head), len(tail)) == (500, 250)
        assert isinstance(middle, RepeatedBody) and len(middle) == 8998 * 1000
        assert len(sliced) == 9_000_250 - 1500

    def test_slice_within_one_unit_is_the_unit_slice(self):
        body = RepeatedBody(BytesBody(b"abcdef"), 3)
        assert body.slice(7, 10).materialize() == b"bcd"

    @given(
        unit=_UNITS,
        count=st.integers(0, 6),
        start=st.integers(-5, 300),
        stop=st.integers(-5, 300),
    )
    @settings(max_examples=300)
    def test_slice_property(self, unit, count, start, stop):
        body = RepeatedBody(unit, count)
        whole = body.materialize()
        assert len(body) == len(whole) == len(unit) * count
        assert body.slice(start, stop).materialize() == _clamped(whole, start, stop)

    @given(
        unit=_UNITS,
        count=st.integers(0, 6),
        outer=st.tuples(st.integers(-5, 300), st.integers(-5, 300)),
        inner=st.tuples(st.integers(-5, 300), st.integers(-5, 300)),
    )
    @settings(max_examples=300)
    def test_slices_of_slices(self, unit, count, outer, inner):
        body = RepeatedBody(unit, count)
        once = body.slice(*outer)
        twice = once.slice(*inner)
        assert len(twice) == len(twice.materialize())
        assert twice.materialize() == _clamped(
            _clamped(body.materialize(), *outer), *inner
        )


class TestMakeBody:
    def test_none_is_empty(self):
        assert len(make_body(None)) == 0

    def test_bytes_passthrough(self):
        assert make_body(b"ab").materialize() == b"ab"

    def test_str_is_utf8(self):
        assert make_body("héllo").materialize() == "héllo".encode("utf-8")

    def test_int_is_synthetic(self):
        body = make_body(1024)
        assert isinstance(body, SyntheticBody)
        assert len(body) == 1024

    def test_body_passthrough_identity(self):
        body = BytesBody(b"x")
        assert make_body(body) is body

    def test_bool_rejected(self):
        with pytest.raises(TypeError):
            make_body(True)

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            make_body(3.14)

    def test_all_bodies_implement_interface(self):
        for body in (
            BytesBody(b"a"),
            SyntheticBody(1),
            CompositeBody([b"a"]),
            RepeatedBody(BytesBody(b"a"), 2),
        ):
            assert isinstance(body, Body)
