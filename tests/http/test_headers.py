"""Unit tests for the ordered, case-insensitive header map."""

import pytest

from repro.errors import HeaderError
from repro.http.headers import Headers, declared_length


class TestBasicOperations:
    def test_empty_headers(self):
        headers = Headers()
        assert len(headers) == 0
        assert headers.get("Host") is None
        assert "Host" not in headers

    def test_add_and_get(self):
        headers = Headers()
        headers.add("Host", "example.com")
        assert headers.get("Host") == "example.com"

    def test_lookup_is_case_insensitive(self):
        headers = Headers([("Content-Type", "text/plain")])
        assert headers.get("content-type") == "text/plain"
        assert headers.get("CONTENT-TYPE") == "text/plain"
        assert "cOnTeNt-TyPe" in headers

    def test_get_returns_first_value(self):
        headers = Headers([("Via", "1.1 a"), ("Via", "1.1 b")])
        assert headers.get("Via") == "1.1 a"

    def test_get_all_preserves_order(self):
        headers = Headers([("Via", "1.1 a"), ("Host", "h"), ("Via", "1.1 b")])
        assert headers.get_all("via") == ["1.1 a", "1.1 b"]

    def test_get_default(self):
        assert Headers().get("X-Nope", "fallback") == "fallback"

    def test_declared_length(self):
        assert declared_length(Headers([("Content-Length", " 042 ")])) == 42

    def test_declared_length_absent_is_none(self):
        assert declared_length(Headers([("Host", "h")])) is None

    def test_declared_length_malformed_raises(self):
        # Content-Length = 1*DIGIT, sent once.
        for values in (
            ["forty-two"], ["+5"], ["1_000"], ["\u0663"], ["-2"], [""],
            ["1", "5"], ["5", "5"],
        ):
            headers = Headers([("Content-Length", value) for value in values])
            with pytest.raises(HeaderError):
                declared_length(headers)

    def test_iteration_preserves_wire_order(self):
        items = [("B", "2"), ("A", "1"), ("C", "3")]
        assert Headers(items).items() == items

    def test_values_coerced_to_str(self):
        headers = Headers()
        headers.add("Content-Length", 10)
        assert headers.get("Content-Length") == "10"


class TestSetAndRemove:
    def test_set_replaces_in_place(self):
        headers = Headers([("A", "1"), ("B", "2"), ("A", "3")])
        headers.set("a", "9")
        assert headers.items() == [("a", "9"), ("B", "2")]

    def test_set_appends_when_absent(self):
        headers = Headers([("A", "1")])
        headers.set("B", "2")
        assert headers.items() == [("A", "1"), ("B", "2")]

    def test_remove_deletes_all_and_counts(self):
        headers = Headers([("Via", "a"), ("Host", "h"), ("VIA", "b")])
        assert headers.remove("via") == 2
        assert headers.items() == [("Host", "h")]

    def test_remove_missing_returns_zero(self):
        assert Headers().remove("X") == 0


class TestValidation:
    def test_empty_name_rejected(self):
        with pytest.raises(HeaderError):
            Headers([("", "v")])

    @pytest.mark.parametrize("bad", ["Na me", "Na:me", "Na\tme", "Na(me)", "Nam\xe9"])
    def test_invalid_name_characters_rejected(self, bad):
        with pytest.raises(HeaderError):
            Headers([(bad, "v")])

    @pytest.mark.parametrize("bad", ["a\r\nb", "a\nb", "a\rb"])
    def test_crlf_injection_rejected(self, bad):
        with pytest.raises(HeaderError):
            Headers([("X", bad)])

    def test_set_validates_too(self):
        headers = Headers()
        with pytest.raises(HeaderError):
            headers.set("X", "bad\r\nvalue")


class TestWireSize:
    def test_wire_size_matches_serialize(self):
        headers = Headers([("Host", "example.com"), ("Range", "bytes=0-0")])
        assert headers.wire_size() == len(headers.serialize())

    def test_empty_wire_size(self):
        assert Headers().wire_size() == 0
        assert Headers().serialize() == b""

    def test_field_line_size(self):
        headers = Headers([("Range", "bytes=0-0")])
        # "Range: bytes=0-0\r\n" is 18 bytes
        assert headers.field_line_size("range") == 18

    def test_field_line_size_absent(self):
        assert Headers().field_line_size("Range") == 0

    def test_serialize_format(self):
        headers = Headers([("Host", "h"), ("A", "1")])
        assert headers.serialize() == b"Host: h\r\nA: 1\r\n"


class TestParseAndCopy:
    def test_parse_round_trip(self):
        original = Headers([("Host", "example.com"), ("Range", "bytes=0-0")])
        parsed = Headers.parse(original.serialize())
        assert parsed == original

    def test_parse_empty(self):
        assert len(Headers.parse(b"")) == 0

    def test_parse_malformed_line_raises(self):
        with pytest.raises(HeaderError):
            Headers.parse(b"no-colon-here\r\n")

    def test_copy_is_independent(self):
        original = Headers([("A", "1")])
        clone = original.copy()
        clone.add("B", "2")
        assert "B" not in original

    def test_equality_ignores_name_case(self):
        assert Headers([("HOST", "h")]) == Headers([("host", "h")])

    def test_equality_respects_values(self):
        assert Headers([("A", "1")]) != Headers([("A", "2")])
