"""``multipart/byteranges`` encoding and decoding (RFC 7233 Appendix A).

A multi-range 206 response carries one body *part* per requested range,
each introduced by a dash-boundary line and its own ``Content-Type`` /
``Content-Range`` headers.  The OBR attack's entire amplification comes
from this encoding: a server that honors ``n`` overlapping ``0-`` ranges
of a ``F``-byte resource emits roughly ``n * (F + part_overhead)`` bytes.

Wire format produced by :meth:`MultipartByteranges.to_body`::

    --BOUNDARY\r\n
    Content-Type: <type>\r\n
    Content-Range: bytes <s>-<e>/<N>\r\n
    \r\n
    <part payload>\r\n
    ...repeated per part...
    --BOUNDARY--\r\n

Part payloads are kept as :class:`~repro.http.body.Body` objects and
assembled into a :class:`~repro.http.body.CompositeBody`, so a
10,000-part response over a synthetic resource is sized exactly without
ever being materialized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.errors import MultipartError
from repro.http.body import Body, BytesBody, CompositeBody
from repro.http.headers import Headers
from repro.http.ranges import ResolvedRange, format_content_range, parse_content_range

#: Boundary string used when the caller does not supply one.  Real servers
#: generate random boundaries; a fixed default keeps traffic accounting
#: deterministic (and its length is typical of Apache's).
DEFAULT_BOUNDARY = "00000000000000000001"


@dataclass(frozen=True)
class MultipartPart:
    """One part of a multipart/byteranges payload."""

    content_type: str
    content_range: ResolvedRange
    complete_length: int
    payload: Body

    def __post_init__(self) -> None:
        if len(self.payload) != self.content_range.length:
            raise MultipartError(
                f"part payload is {len(self.payload)} bytes but Content-Range "
                f"{self.content_range} declares {self.content_range.length}"
            )

    def header_blob(self) -> bytes:
        """The part's header block including the trailing blank line."""
        headers = Headers(
            [
                ("Content-Type", self.content_type),
                (
                    "Content-Range",
                    format_content_range(
                        self.content_range.start,
                        self.content_range.end,
                        self.complete_length,
                    ),
                ),
            ]
        )
        return headers.serialize() + b"\r\n"


class MultipartByteranges:
    """A full multipart/byteranges payload."""

    __slots__ = ("boundary", "parts")

    def __init__(self, parts: Sequence[MultipartPart], boundary: str = DEFAULT_BOUNDARY) -> None:
        if not boundary or len(boundary) > 70:
            raise MultipartError(f"invalid boundary {boundary!r}")
        self.boundary = boundary
        self.parts: Tuple[MultipartPart, ...] = tuple(parts)

    # -- construction -------------------------------------------------------

    @classmethod
    def build(
        cls,
        resource_body: Body,
        ranges: Sequence[ResolvedRange],
        content_type: str,
        complete_length: Optional[int] = None,
        boundary: str = DEFAULT_BOUNDARY,
    ) -> "MultipartByteranges":
        """Assemble a multipart payload by slicing ``resource_body``.

        ``ranges`` must already be resolved (satisfiable) against the
        resource; no overlap checking is done here — deliberately, since
        modeling servers that *skip* that check is the point of the OBR
        reproduction.  Overlap rejection belongs in the server policy
        layer (:mod:`repro.cdn.multirange`).
        """
        complete = complete_length if complete_length is not None else len(resource_body)
        parts = [
            MultipartPart(
                content_type=content_type,
                content_range=r,
                complete_length=complete,
                payload=resource_body.slice(r.start, r.end + 1),
            )
            for r in ranges
        ]
        return cls(parts, boundary=boundary)

    # -- encoding -----------------------------------------------------------

    @property
    def content_type_header(self) -> str:
        """Value for the enclosing response's ``Content-Type`` header."""
        return f"multipart/byteranges; boundary={self.boundary}"

    def to_body(self) -> CompositeBody:
        """Encode to a lazily-materialized body."""
        delimiter = f"--{self.boundary}\r\n".encode("latin-1")
        closer = f"--{self.boundary}--\r\n".encode("latin-1")
        pieces: List[object] = []
        for part in self.parts:
            pieces.append(delimiter)
            pieces.append(part.header_blob())
            pieces.append(part.payload)
            pieces.append(b"\r\n")
        pieces.append(closer)
        return CompositeBody(pieces)

    def wire_size(self) -> int:
        """Exact encoded size in bytes (no materialization)."""
        delimiter_len = len(self.boundary) + 4  # "--" + boundary + CRLF
        closer_len = len(self.boundary) + 6  # "--" + boundary + "--" + CRLF
        total = closer_len
        for part in self.parts:
            total += delimiter_len + len(part.header_blob()) + len(part.payload) + 2
        return total

    def part_overhead(self, part: MultipartPart) -> int:
        """Encoded bytes a part adds beyond its payload."""
        return (len(self.boundary) + 4) + len(part.header_blob()) + 2

    # -- decoding -----------------------------------------------------------

    @classmethod
    def parse(cls, blob: bytes, boundary: str) -> "MultipartByteranges":
        """Decode a multipart/byteranges payload produced by :meth:`to_body`."""
        delimiter = f"--{boundary}\r\n".encode("latin-1")
        closer = f"--{boundary}--".encode("latin-1")
        closer_at = blob.rfind(closer)
        if closer_at < 0:
            raise MultipartError("missing closing boundary")
        body = blob[:closer_at]
        if not body.startswith(delimiter):
            raise MultipartError("payload does not start with the dash-boundary")
        chunks = body.split(delimiter)[1:]  # leading empty piece before first delimiter
        parts: List[MultipartPart] = []
        for chunk in chunks:
            head, sep, payload = chunk.partition(b"\r\n\r\n")
            if not sep:
                raise MultipartError("part is missing its blank line")
            if not payload.endswith(b"\r\n"):
                raise MultipartError("part payload is missing its trailing CRLF")
            payload = payload[:-2]
            headers = Headers.parse(head + b"\r\n" if head else b"")
            content_range_raw = headers.get("Content-Range")
            if content_range_raw is None:
                raise MultipartError("part is missing Content-Range")
            resolved, complete = parse_content_range(content_range_raw)
            if resolved is None or complete is None:
                raise MultipartError(f"unusable part Content-Range {content_range_raw!r}")
            parts.append(
                MultipartPart(
                    content_type=headers.get("Content-Type", "application/octet-stream"),
                    content_range=resolved,
                    complete_length=complete,
                    payload=BytesBody(payload),
                )
            )
        if not parts:
            raise MultipartError("multipart payload has no parts")
        return cls(parts, boundary=boundary)

    def __len__(self) -> int:
        return len(self.parts)

    def __repr__(self) -> str:
        return (
            f"MultipartByteranges({len(self.parts)} parts, "
            f"boundary={self.boundary!r}, {self.wire_size()} wire bytes)"
        )
