"""Request-header size limits.

The OBR attack's amplification is ``n`` (the number of overlapping
ranges), and ``n`` is bounded only by how large a ``Range`` header the
CDNs along the path will accept.  The paper measured (§V-C):

* Akamai — total request headers limited to 32 KB;
* StackPath — total limited to ~81 KB;
* CDN77 / CDNsun — any single header line limited to 16 KB;
* Cloudflare — ``RL + 2·HHL + RHL <= 32411`` bytes, where RL is the
  request line, HHL the Host header line, and RHL the Range header line;
* Azure — at most 64 ranges in a Range header.

The RFC 7233 §6.1 guard the paper recommends (§VI-C) is a limit too:
a request may carry at most two ranges that overlap.

:class:`HeaderLimits` models all six; exceeding a byte limit is answered
with HTTP 431 and exceeding the range-count limit with 416, which is how
the max-n search detects the boundary.

Every limit is a linear inequality in the number of ranges: the OBR
header ``bytes=0-,0-,…`` grows by a fixed ``step`` bytes per range, and
its ranges all overlap one another, so the overlap cap bounds the range
count itself.  :meth:`HeaderLimits.range_cap` therefore solves each
declared limit for the largest admitted range count, and
:meth:`HeaderLimits.fits` decides the same limits on a
:class:`RequestHead` — the byte counts of a request, with its Range
value grown to any count — without building the request.  The static
max-n search (:func:`repro.analysis.bounds.static_max_n`) takes the
solved cap as its first guess and certifies it with size checks at
``n`` and ``n + 1``; only an opaque ``custom`` predicate (the RFC 7233
guard) is still asked on a real message.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, NamedTuple, Optional

from repro.errors import RequestRejectedError
from repro.http.message import HttpRequest
from repro.http.ranges import try_parse_range_header
from repro.http.status import StatusCode


class RequestHead(NamedTuple):
    """The byte counts :class:`HeaderLimits` reads off a request.

    Each ``*_line`` is one field line's wire size with its CRLF (0 when
    the header is absent); ``other_line`` is the longest field line but
    Range, and ``block`` runs from the request line through the blank
    line.  :meth:`grown` gives the head of the same request with a
    longer Range value, so a max-n probe needs no message per ``n``.  A
    named tuple, so a probe can make one cheaply.
    """

    request_line: int
    host_line: int
    range_line: int
    other_line: int
    block: int

    @classmethod
    def of(cls, request: HttpRequest) -> "RequestHead":
        headers = request.headers
        return cls(
            request_line=request.request_line_size(),
            host_line=headers.field_line_size("Host"),
            range_line=headers.field_line_size("Range"),
            other_line=max(
                (
                    headers.field_line_size(name)
                    for name in headers.names()
                    if name.lower() != "range"
                ),
                default=0,
            ),
            block=request.header_block_size(),
        )

    def grown(self, extra: int) -> "RequestHead":
        """This head with ``extra`` more bytes in its Range value."""
        return RequestHead(
            self.request_line,
            self.host_line,
            self.range_line + extra,
            self.other_line,
            self.block + extra,
        )

    @property
    def rule_bytes(self) -> int:
        """``RL + 2·HHL + RHL``, what :class:`CloudflareRule` counts."""
        return self.request_line + 2 * self.host_line + self.range_line


@dataclass(frozen=True)
class CloudflareRule:
    """Cloudflare's measured constraint on Range-bearing requests:
    request line + 2x the Host header line + the Range header line must
    fit in ``budget`` bytes.

    A frozen value rather than a closure, so :meth:`HeaderLimits.range_cap`
    can solve it for ``n`` and :meth:`HeaderLimits.fits` decide it on
    sizes; calling it is the :attr:`HeaderLimits.custom` predicate.
    """

    budget: int = 32411

    @staticmethod
    def used(request: HttpRequest) -> int:
        """``RL + 2·HHL + RHL`` of ``request`` in bytes."""
        return (
            request.request_line_size()
            + 2 * request.headers.field_line_size("Host")
            + request.headers.field_line_size("Range")
        )

    def admits(self, head: RequestHead) -> bool:
        """The rule on sizes; a head without a Range line is exempt."""
        return not head.range_line or head.rule_bytes <= self.budget

    def __call__(self, request: HttpRequest) -> Optional[str]:
        if not request.headers.field_line_size("Range"):
            return None
        used = self.used(request)
        if used > self.budget:
            return f"RL + 2*HHL + RHL = {used} exceeds {self.budget}"
        return None


@dataclass(frozen=True)
class HeaderLimits:
    """Request-size constraints a CDN enforces at ingress.

    * ``max_total_header_bytes`` — cap on the whole request header block
      (request line through the blank line), Akamai/StackPath style.
    * ``max_single_header_line_bytes`` — cap on any one serialized header
      line (``Name: value\\r\\n``), CDN77/CDNsun style.
    * ``max_ranges`` — cap on the number of byte-range specs in the Range
      header, Azure style.
    * ``custom`` — an arbitrary predicate returning an error message:
      Cloudflare's composite rule (a :class:`CloudflareRule`) or the
      RFC 7233 §6.1 guard
      (:func:`~repro.defense.mitigations.rfc7233_multirange_guard`).
    * ``max_overlapping_ranges`` — the cap the RFC 7233 guard in
      ``custom`` enforces on ranges that overlap.  :meth:`check` leaves
      enforcement to that guard; the field declares the cap so
      :meth:`range_cap` can solve it.
    """

    max_total_header_bytes: Optional[int] = None
    max_single_header_line_bytes: Optional[int] = None
    max_ranges: Optional[int] = None
    custom: Optional[Callable[[HttpRequest], Optional[str]]] = None
    max_overlapping_ranges: Optional[int] = None

    def range_cap(self, head: RequestHead, count: int, step: int) -> Optional[int]:
        """The largest range count every declared limit admits.

        ``head`` is the size of a request whose Range header carries
        ``count`` ranges that all overlap one another, and each further
        range adds ``step`` bytes to that header line.  Each byte limit
        is solved by division, and the range and overlap caps bound the
        count directly; the answer is the smallest of them, or ``None``
        when no limit is declared or only an opaque ``custom`` predicate
        could bind.  A limit the rest of the request already breaks
        yields 0.
        """
        caps: List[int] = []
        if self.max_total_header_bytes is not None:
            spare = self.max_total_header_bytes - head.block
            caps.append(count + spare // step)
        if self.max_single_header_line_bytes is not None:
            limit = self.max_single_header_line_bytes
            if head.other_line > limit:
                caps.append(0)
            else:
                caps.append(count + (limit - head.range_line) // step)
        if self.max_ranges is not None:
            caps.append(self.max_ranges)
        if self.max_overlapping_ranges is not None:
            caps.append(self.max_overlapping_ranges)
        if isinstance(self.custom, CloudflareRule):
            caps.append(count + (self.custom.budget - head.rule_bytes) // step)
        return max(0, min(caps)) if caps else None

    @property
    def opaque_custom(self) -> Optional[Callable[[HttpRequest], Optional[str]]]:
        """``custom`` when only a real message can answer it: any
        predicate but a :class:`CloudflareRule`, which :meth:`fits`
        decides on sizes."""
        return None if isinstance(self.custom, CloudflareRule) else self.custom

    def fits(self, head: RequestHead, ranges: int) -> bool:
        """:meth:`check` on sizes: whether a request with ``head``, whose
        Range header holds ``ranges`` ranges, passes every limit but
        :attr:`opaque_custom`."""
        if (
            self.max_total_header_bytes is not None
            and head.block > self.max_total_header_bytes
        ):
            return False
        if self.max_single_header_line_bytes is not None and (
            max(head.range_line, head.other_line) > self.max_single_header_line_bytes
        ):
            return False
        if self.max_ranges is not None and ranges > self.max_ranges:
            return False
        return not isinstance(self.custom, CloudflareRule) or self.custom.admits(head)

    def check(self, request: HttpRequest) -> None:
        """Raise :class:`RequestRejectedError` if ``request`` violates any
        limit; return silently otherwise."""
        if self.max_total_header_bytes is not None:
            total = request.header_block_size()
            if total > self.max_total_header_bytes:
                raise RequestRejectedError(
                    f"request header block is {total} bytes, "
                    f"limit is {self.max_total_header_bytes}",
                    status_code=int(StatusCode.REQUEST_HEADER_FIELDS_TOO_LARGE),
                )
        if self.max_single_header_line_bytes is not None:
            for name in request.headers.names():
                line = request.headers.field_line_size(name)
                if line > self.max_single_header_line_bytes:
                    raise RequestRejectedError(
                        f"header {name} line is {line} bytes, "
                        f"limit is {self.max_single_header_line_bytes}",
                        status_code=int(StatusCode.REQUEST_HEADER_FIELDS_TOO_LARGE),
                    )
        if self.max_ranges is not None:
            spec = try_parse_range_header(request.headers.get("Range"))
            if spec is not None and len(spec) > self.max_ranges:
                raise RequestRejectedError(
                    f"Range header has {len(spec)} ranges, limit is {self.max_ranges}",
                    status_code=int(StatusCode.RANGE_NOT_SATISFIABLE),
                )
        if self.custom is not None:
            message = self.custom(request)
            if message:
                raise RequestRejectedError(
                    message,
                    status_code=int(StatusCode.REQUEST_HEADER_FIELDS_TOO_LARGE),
                )
