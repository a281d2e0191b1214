"""Unit tests for HTTP request/response messages and wire accounting."""

import pytest

from repro.errors import HeaderError, MessageError
from repro.http.headers import Headers
from repro.http.message import HttpRequest, HttpResponse


class TestHttpRequest:
    def test_defaults(self):
        request = HttpRequest()
        assert request.method == "GET"
        assert request.target == "/"
        assert request.version == "HTTP/1.1"
        assert len(request.body) == 0

    def test_request_line(self):
        request = HttpRequest("GET", "/a/b?x=1")
        assert request.request_line() == "GET /a/b?x=1 HTTP/1.1"

    def test_host_property(self):
        request = HttpRequest(headers=[("Host", "example.com")])
        assert request.host == "example.com"
        assert HttpRequest().host is None

    def test_path_and_query(self):
        request = HttpRequest(target="/file.bin?cb=3&x=1")
        assert request.path == "/file.bin"
        assert request.query == "cb=3&x=1"

    def test_path_without_query(self):
        request = HttpRequest(target="/file.bin")
        assert request.path == "/file.bin"
        assert request.query == ""

    def test_range_header_property(self):
        request = HttpRequest(headers=[("Range", "bytes=0-0")])
        assert request.range_header == "bytes=0-0"

    def test_wire_size_matches_serialize(self):
        request = HttpRequest(
            "GET", "/x", headers=[("Host", "h"), ("Range", "bytes=0-0")], body=b"abc"
        )
        assert request.wire_size() == len(request.serialize())

    def test_header_block_size_matches_serialize_prefix(self):
        request = HttpRequest("GET", "/x", headers=[("Host", "h")])
        blob = request.serialize()
        assert blob.endswith(b"\r\n\r\n")
        assert request.header_block_size() == len(blob)

    def test_copy_is_deep_for_headers(self):
        request = HttpRequest(headers=[("Host", "h")])
        clone = request.copy()
        clone.headers.add("Range", "bytes=0-0")
        assert "Range" not in request.headers

    def test_invalid_method_rejected(self):
        with pytest.raises(MessageError):
            HttpRequest(method="GE T")
        with pytest.raises(MessageError):
            HttpRequest(method="")

    @pytest.mark.parametrize(
        "method", ["GET\x00", "G\x7fET", "GE(T", "GET:", "G/T", "G\u00c9T", "\tGET"]
    )
    def test_method_must_be_a_token(self, method):
        # RFC 7230 §3.1.1 method = token: controls and delimiters are out too.
        with pytest.raises(MessageError, match="invalid method"):
            HttpRequest(method=method)

    @pytest.mark.parametrize("method", ["GET", "get", "M-SEARCH", "PROPFIND", "X_Y.1~"])
    def test_token_methods_accepted(self, method):
        assert HttpRequest(method=method).method == method

    def test_invalid_target_rejected(self):
        with pytest.raises(MessageError):
            HttpRequest(target="/a b")
        with pytest.raises(MessageError):
            HttpRequest(target="")

    @pytest.mark.parametrize(
        "version", ["HTTP/1.1\r\nEvil: 1", "HTTP/9.x", "HTTP/1.1 ", "", "HTTP/11.1"]
    )
    def test_invalid_version_rejected(self, version):
        # Serialized, the first one used to emit an injected Evil header.
        with pytest.raises(MessageError, match="invalid HTTP version"):
            HttpRequest(version=version)

    def test_other_digit_versions_accepted(self):
        assert HttpRequest(version="HTTP/1.0").request_line() == "GET / HTTP/1.0"

    def test_headers_accepts_headers_instance(self):
        headers = Headers([("Host", "h")])
        request = HttpRequest(headers=headers)
        assert request.headers is headers


class TestHttpResponse:
    def test_reason_defaults_from_status(self):
        assert HttpResponse(206).reason == "Partial Content"
        assert HttpResponse(200).reason == "OK"
        assert HttpResponse(416).reason == "Range Not Satisfiable"

    def test_custom_reason(self):
        assert HttpResponse(200, reason="Fine").reason == "Fine"

    def test_status_line(self):
        assert HttpResponse(206).status_line() == "HTTP/1.1 206 Partial Content"

    @pytest.mark.parametrize(
        "reason", ["OK\r\nEvil: 1", "OK\nEvil: 1", "OK\r", "O\x00K", "O\x7fK", "O\x1fK"]
    )
    def test_reason_with_control_bytes_rejected(self, reason):
        # Serialized, the first one used to emit an injected Evil header.
        with pytest.raises(MessageError, match="invalid reason phrase"):
            HttpResponse(200, reason=reason)

    def test_reason_allows_tab_space_and_obs_text(self):
        reason = "Fine\tand dandy \xe9"
        assert HttpResponse(200, reason=reason).status_line() == f"HTTP/1.1 200 {reason}"
        assert HttpResponse(200, reason="").status_line() == "HTTP/1.1 200 "

    @pytest.mark.parametrize("version", ["HTTP/1.1\r\nEvil: 1", "HTTP/9.x", "HTTP/1.1x"])
    def test_invalid_version_rejected(self, version):
        with pytest.raises(MessageError, match="invalid HTTP version"):
            HttpResponse(200, version=version)

    def test_predicates(self):
        assert HttpResponse(200).is_success
        assert HttpResponse(206).is_partial
        assert not HttpResponse(416).is_success

    def test_wire_size_matches_serialize(self):
        response = HttpResponse(
            200, headers=[("Content-Length", "3")], body=b"abc"
        )
        assert response.wire_size() == len(response.serialize())

    def test_wire_size_with_synthetic_body(self):
        response = HttpResponse(200, body=10 * 1024 * 1024)
        assert response.wire_size() == response.header_block_size() + 10 * 1024 * 1024

    def test_declared_content_length(self):
        response = HttpResponse(200, headers=[("Content-Length", "99")])
        assert response.declared_content_length() == 99
        assert HttpResponse(200).declared_content_length() is None
        # int() reads the first four as 5, 1000, 3 and -2; none is 1*DIGIT.
        for lengths in (["+5"], ["1_000"], ["\u0663"], ["-2"], ["1", "5"]):
            response = HttpResponse(
                200, headers=[("Content-Length", length) for length in lengths]
            )
            with pytest.raises(HeaderError):
                response.declared_content_length()

    def test_content_type(self):
        response = HttpResponse(200, headers=[("Content-Type", "image/png")])
        assert response.content_type == "image/png"

    def test_invalid_status_rejected(self):
        with pytest.raises(MessageError):
            HttpResponse(99)
        with pytest.raises(MessageError):
            HttpResponse(600)

    def test_copy_is_independent(self):
        response = HttpResponse(200, headers=[("A", "1")], body=b"x")
        clone = response.copy()
        clone.headers.add("B", "2")
        assert "B" not in response.headers
        assert clone.body.materialize() == b"x"
