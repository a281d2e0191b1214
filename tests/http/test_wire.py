"""Unit and property tests for wire-format parsing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import HeaderError, MessageError
from repro.http.headers import Headers
from repro.http.message import HttpRequest, HttpResponse
from repro.http.wire import parse_request, parse_request_head, parse_response


class TestParseRequest:
    def test_round_trip(self):
        original = HttpRequest(
            "GET",
            "/file.bin?cb=3",
            headers=[("Host", "victim.example"), ("Range", "bytes=0-0")],
        )
        parsed = parse_request(original.serialize())
        assert parsed.method == "GET"
        assert parsed.target == "/file.bin?cb=3"
        assert parsed.headers == original.headers
        assert parsed.serialize() == original.serialize()

    def test_body_delimited_by_content_length(self):
        blob = (
            b"POST /x HTTP/1.1\r\nHost: h\r\nContent-Length: 3\r\n\r\nabcEXTRA"
        )
        parsed = parse_request(blob)
        assert parsed.body.materialize() == b"abc"

    def test_body_without_content_length_takes_rest(self):
        blob = b"POST /x HTTP/1.1\r\nHost: h\r\n\r\npayload"
        assert parse_request(blob).body.materialize() == b"payload"

    @pytest.mark.parametrize(
        "bad",
        [
            b"GET /x HTTP/1.1\r\nHost: h\r\n",  # no blank line
            b"GET /x\r\n\r\n",  # two-token request line
            b"GET /x NOTHTTP\r\n\r\n",  # bad version
            b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort",  # truncated
            b"POST /x HTTP/1.1\r\nContent-Length: 1\r\n"  # repeated length
            b"Content-Length: 5\r\n\r\nhello",
        ],
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(MessageError):
            parse_request(bad)

    @pytest.mark.parametrize(
        "length",
        [
            "-3",
            "-2",
            "+5",
            "0_5",
            "1_000",
            " 5x",
            "5.0",
            "0x5",
            "",
            "\u0665".encode("utf-8").decode("latin-1"),
            "\u0663".encode("utf-8").decode("latin-1"),
        ],
    )
    def test_non_decimal_content_length_rejected(self, length):
        # Content-Length = 1*DIGIT; "-3" used to cut the body to body[:-3].
        blob = f"POST /x HTTP/1.1\r\nHost: h\r\nContent-Length: {length}\r\n\r\nhello"
        with pytest.raises(MessageError):
            parse_request(blob.encode("latin-1"))

    def test_decimal_content_length_with_ows_accepted(self):
        blob = b"POST /x HTTP/1.1\r\nHost: h\r\nContent-Length:  005 \r\n\r\nhello"
        assert parse_request(blob).body.materialize() == b"hello"


class TestFieldLineWhitespace:
    """RFC 7230 §3.2.4: a server rejects these heads instead of repairing them."""

    @pytest.mark.parametrize(
        "line",
        [b"Content-Length : 5", b"Content-Length\t: 5", b"Host  : h"],
    )
    def test_whitespace_before_the_colon_is_rejected(self, line):
        # The name used to be stripped, so this declared a length of 5.
        with pytest.raises(HeaderError, match="before the colon"):
            parse_request_head(b"POST /x HTTP/1.1\r\n" + line)

    @pytest.mark.parametrize(
        "head",
        [
            b"GET /x HTTP/1.1\r\nHost: h\r\n X: y",  # obs-fold
            b"GET /x HTTP/1.1\r\nHost: h\r\n\tX: y",
            b"GET /x HTTP/1.1\r\nX: a\r\n  continued",  # fold without a colon
            b"GET /x HTTP/1.1\r\n Host: h",  # whitespace before the first field
        ],
    )
    def test_a_line_starting_with_whitespace_is_rejected(self, head):
        # Each folded line used to be read as a new field.
        with pytest.raises(HeaderError, match="starts with whitespace"):
            parse_request_head(head)

    def test_whole_requests_and_responses_are_rejected_too(self):
        with pytest.raises(HeaderError):
            parse_request(b"POST /x HTTP/1.1\r\nContent-Length : 5\r\n\r\nhello")
        with pytest.raises(HeaderError):
            parse_response(b"HTTP/1.1 200 OK\r\nServer: a\r\n b\r\n\r\n")

    def test_whitespace_around_the_value_is_still_trimmed(self):
        request, declared = parse_request_head(
            b"POST /x HTTP/1.1\r\nHost:h\r\nContent-Length: \t5 \t"
        )
        assert declared == 5
        assert request.headers.items() == [("Host", "h"), ("Content-Length", "5")]

    @pytest.mark.parametrize("byte", [b"\xa0", b"\x0b", b"\x85", b"\x1c"])
    def test_only_space_and_tab_are_trimmed(self, byte):
        # NBSP, VT, NEL and FS are not RFC 7230 OWS; str.strip() used to
        # drop them, so these heads declared a length of 5.
        for value in (b"5" + byte, byte + b"5", b" 5" + byte + b"\t"):
            with pytest.raises(MessageError, match="not a non-negative integer"):
                parse_request_head(b"POST /x HTTP/1.1\r\nContent-Length: " + value)
        headers = Headers.parse(b"X: a" + byte + b" \r\n")
        assert headers.get("X") == "a" + byte.decode("latin-1")

    def test_header_parse_checks_every_name(self):
        with pytest.raises(HeaderError, match="invalid character"):
            Headers.parse(b"X\x0bY: 1\r\n")
        with pytest.raises(HeaderError, match="non-empty"):
            Headers.parse(b": 1\r\n")


class TestParseResponse:
    def test_round_trip(self):
        original = HttpResponse(
            206,
            headers=[("Content-Range", "bytes 0-0/1000"), ("Content-Length", "1")],
            body=b"x",
        )
        parsed = parse_response(original.serialize())
        assert parsed.status == 206
        assert parsed.reason == "Partial Content"
        assert parsed.serialize() == original.serialize()

    def test_status_only_line(self):
        parsed = parse_response(b"HTTP/1.1 204\r\n\r\n")
        assert parsed.status == 204
        assert parsed.reason == ""

    def test_reason_with_spaces(self):
        parsed = parse_response(b"HTTP/1.1 416 Range Not Satisfiable\r\n\r\n")
        assert parsed.reason == "Range Not Satisfiable"

    @pytest.mark.parametrize(
        "bad",
        [
            b"HTTP/1.1 abc OK\r\n\r\n",
            b"NOTHTTP 200 OK\r\n\r\n",
            b"HTTP/1.1\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nab",
        ],
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(MessageError):
            parse_response(bad)

    @pytest.mark.parametrize(
        "status", [b"2_06", b"+206", b"-206", b"20", b"2066", b"0206", b" 206"]
    )
    def test_status_code_must_be_three_digits(self, status):
        # status-code = 3DIGIT
        with pytest.raises(MessageError):
            parse_response(b"HTTP/1.1 " + status + b" Partial Content\r\n\r\n")

    def test_non_decimal_content_length_rejected(self):
        with pytest.raises(MessageError):
            parse_response(b"HTTP/1.1 200 OK\r\nContent-Length: -3\r\n\r\nhello")


_token = st.text(alphabet="abcdefghijklmnopqrstuvwxyz-", min_size=1, max_size=12)


class TestStartLineVersion:
    @pytest.mark.parametrize(
        "version", ["HTTP/9.x", "HTTP/1.11", "HTTP/", "HTTP/1", "http/1.1", "HTTP/\u0661.1"]
    )
    def test_version_must_be_digit_dot_digit(self, version):
        head = f"GET /x {version}\r\nHost: h".encode("utf-8")
        with pytest.raises(MessageError, match="malformed HTTP version"):
            parse_request_head(head)
        with pytest.raises(MessageError, match="malformed HTTP version"):
            parse_response(f"{version} 200 OK\r\n\r\n".encode("utf-8"))

    def test_other_versions_round_trip(self):
        request, _ = parse_request_head(b"GET /x HTTP/1.0\r\nHost: h")
        assert request.version == "HTTP/1.0"
        assert parse_response(b"HTTP/2.0 204 No Content\r\n\r\n").version == "HTTP/2.0"

    @pytest.mark.parametrize("byte", ["\x00", "\x7f", "\x1b", "\x0b"])
    def test_reason_with_a_control_byte_is_rejected(self, byte):
        with pytest.raises(MessageError, match="invalid reason phrase"):
            parse_response(f"HTTP/1.1 200 O{byte}K\r\n\r\n".encode("latin-1"))


class TestRoundTripProperties:
    @given(
        target=st.text(
            alphabet="abcdefghijklmnopqrstuvwxyz0123456789/?=&.-", min_size=1, max_size=30
        ).map(lambda s: "/" + s),
        header_names=st.lists(_token, min_size=0, max_size=5, unique=True),
        body=st.binary(max_size=64),
    )
    @settings(max_examples=150)
    def test_request_round_trip(self, target, header_names, body):
        headers = [("Host", "h")] + [(n, "v") for n in header_names]
        headers.append(("Content-Length", str(len(body))))
        original = HttpRequest("GET", target, headers=headers, body=body)
        parsed = parse_request(original.serialize())
        assert parsed.serialize() == original.serialize()
        assert parsed.wire_size() == original.wire_size()

    @given(
        status=st.integers(min_value=100, max_value=599),
        body=st.binary(max_size=64),
    )
    @settings(max_examples=150)
    def test_response_round_trip(self, status, body):
        original = HttpResponse(
            status, headers=[("Content-Length", str(len(body)))], body=body
        )
        parsed = parse_response(original.serialize())
        assert parsed.serialize() == original.serialize()

    def test_cdn_response_parses_from_wire(self):
        """End-to-end: a simulated CDN response survives serialization."""
        from tests.conftest import get, make_node, make_origin

        node = make_node("cloudflare", make_origin(1000))
        response = get(node, range_value="bytes=5-9")
        parsed = parse_response(response.serialize())
        assert parsed.status == 206
        assert parsed.headers.get("Content-Range") == "bytes 5-9/1000"
        assert parsed.body.materialize() == response.body.materialize()
