"""Parsing serialized HTTP/1.1 messages back into objects.

The simulator mostly passes message *objects* between hops, but the
test suite (and any user gluing this library to real sockets or pcaps)
needs the inverse of ``serialize()``: byte-exact round-tripping of
requests and responses.  Bodies are delimited by ``Content-Length`` when
present, otherwise by the end of input (the connection-close framing the
simulator's responses use).  :func:`parse_request_head` parses a request
head alone, so a server reading off a socket can bound the body by the
declared length before it reads it; :func:`parse_request` reuses it.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.errors import HeaderError, MessageError
from repro.http.body import make_body
from repro.http.headers import Headers, declared_length, parse_decimal
from repro.http.message import HTTP_VERSION_RE, HttpRequest, HttpResponse

_HEADER_END = b"\r\n\r\n"


def _split(blob: bytes, kind: str) -> Tuple[bytes, bytes]:
    """Split a serialized message into (head, body bytes)."""
    head, separator, body = blob.partition(_HEADER_END)
    if not separator:
        raise MessageError(f"serialized {kind} has no header terminator")
    return head, body


def _parse_head(head: bytes) -> Tuple[str, Headers]:
    """Split a head into its start line and parsed header block."""
    start_line, _, header_blob = head.partition(b"\r\n")
    headers = Headers.parse(header_blob + b"\r\n" if header_blob else b"")
    return start_line.decode("latin-1"), headers


def _declared(headers: Headers, kind: str) -> Optional[int]:
    try:
        return declared_length(headers)
    except HeaderError as exc:
        raise MessageError(f"{kind} framing is invalid: {exc}") from exc


def _delimit_body(declared: Optional[int], body: bytes, kind: str) -> bytes:
    if declared is None:
        return body
    if declared > len(body):
        raise MessageError(
            f"{kind} declares Content-Length {declared} but only "
            f"{len(body)} body bytes are present"
        )
    return body[:declared]


def parse_request_head(head: bytes) -> Tuple[HttpRequest, Optional[int]]:
    """Parse a request head (request line and header lines, without the
    blank line that ends them) into a request with an empty body, and
    the body length the head declares (None when it declares none)."""
    start_line, headers = _parse_head(head)
    parts = start_line.split(" ")
    if len(parts) != 3:
        raise MessageError(f"malformed request line {start_line!r}")
    method, target, version = parts
    if HTTP_VERSION_RE.fullmatch(version) is None:
        raise MessageError(f"malformed HTTP version {version!r}")
    declared = _declared(headers, "request")
    request = HttpRequest(method=method, target=target, headers=headers, version=version)
    return request, declared


def parse_request(blob: bytes) -> HttpRequest:
    """Parse a serialized HTTP/1.1 request (inverse of
    :meth:`HttpRequest.serialize`)."""
    head, body = _split(blob, "request")
    request, declared = parse_request_head(head)
    request.body = make_body(_delimit_body(declared, body, "request"))
    return request


def parse_response(blob: bytes) -> HttpResponse:
    """Parse a serialized HTTP/1.1 response (inverse of
    :meth:`HttpResponse.serialize`)."""
    head, body = _split(blob, "response")
    start_line, headers = _parse_head(head)
    parts = start_line.split(" ", 2)
    if len(parts) < 2:
        raise MessageError(f"malformed status line {start_line!r}")
    version = parts[0]
    if HTTP_VERSION_RE.fullmatch(version) is None:
        raise MessageError(f"malformed HTTP version {version!r}")
    # RFC 7230 §3.1.2: status-code = 3DIGIT.
    status = parse_decimal(parts[1]) if len(parts[1]) == 3 else None
    if status is None:
        raise MessageError(f"malformed status code {parts[1]!r}")
    reason = parts[2] if len(parts) == 3 else ""
    return HttpResponse(
        status=status,
        headers=headers,
        body=_delimit_body(_declared(headers, "response"), body, "response"),
        reason=reason,
        version=version,
    )
