"""Parsing serialized HTTP/1.1 messages back into objects.

The simulator mostly passes message *objects* between hops, but the
test suite (and any user gluing this library to real sockets or pcaps)
needs the inverse of ``serialize()``: byte-exact round-tripping of
requests and responses.  Bodies are delimited by ``Content-Length`` when
present, otherwise by the end of input (the connection-close framing the
simulator's responses use).
"""

from __future__ import annotations

from typing import Tuple

from repro.errors import HeaderError, MessageError
from repro.http.headers import Headers, declared_length, parse_decimal
from repro.http.message import HttpRequest, HttpResponse

_HEADER_END = b"\r\n\r\n"


def _split_head(blob: bytes, kind: str) -> Tuple[str, Headers, bytes]:
    """Split a serialized message into (start line, headers, body bytes)."""
    head, separator, body = blob.partition(_HEADER_END)
    if not separator:
        raise MessageError(f"serialized {kind} has no header terminator")
    start_line, _, header_blob = head.partition(b"\r\n")
    headers = Headers.parse(header_blob + b"\r\n" if header_blob else b"")
    return start_line.decode("latin-1"), headers, body


def _delimit_body(headers: Headers, body: bytes, kind: str) -> bytes:
    try:
        declared = declared_length(headers)
    except HeaderError as exc:
        raise MessageError(f"{kind} framing is invalid: {exc}") from exc
    if declared is None:
        return body
    if declared > len(body):
        raise MessageError(
            f"{kind} declares Content-Length {declared} but only "
            f"{len(body)} body bytes are present"
        )
    return body[:declared]


def parse_request(blob: bytes) -> HttpRequest:
    """Parse a serialized HTTP/1.1 request (inverse of
    :meth:`HttpRequest.serialize`)."""
    start_line, headers, body = _split_head(blob, "request")
    parts = start_line.split(" ")
    if len(parts) != 3:
        raise MessageError(f"malformed request line {start_line!r}")
    method, target, version = parts
    if not version.startswith("HTTP/"):
        raise MessageError(f"malformed HTTP version {version!r}")
    return HttpRequest(
        method=method,
        target=target,
        headers=headers,
        body=_delimit_body(headers, body, "request"),
        version=version,
    )


def parse_response(blob: bytes) -> HttpResponse:
    """Parse a serialized HTTP/1.1 response (inverse of
    :meth:`HttpResponse.serialize`)."""
    start_line, headers, body = _split_head(blob, "response")
    parts = start_line.split(" ", 2)
    if len(parts) < 2:
        raise MessageError(f"malformed status line {start_line!r}")
    version = parts[0]
    if not version.startswith("HTTP/"):
        raise MessageError(f"malformed HTTP version {version!r}")
    # RFC 7230 §3.1.2: status-code = 3DIGIT.
    status = parse_decimal(parts[1]) if len(parts[1]) == 3 else None
    if status is None:
        raise MessageError(f"malformed status code {parts[1]!r}")
    reason = parts[2] if len(parts) == 3 else ""
    return HttpResponse(
        status=status,
        headers=headers,
        body=_delimit_body(headers, body, "response"),
        reason=reason,
        version=version,
    )
