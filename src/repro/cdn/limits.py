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

:class:`HeaderLimits` models all five shapes; exceeding a byte limit is
answered with HTTP 431 and exceeding the range-count limit with 416,
which is how the max-n search detects the boundary.

Every shape is a linear inequality in the number of ranges: the OBR
header ``bytes=0-,0-,…`` grows by a fixed ``step`` bytes per range.
:meth:`HeaderLimits.range_cap` therefore solves each declared limit for
the largest admitted range count by division; the max-n search
(:func:`repro.core.obr.largest_admitted`) takes that as its first guess
and certifies it by probing ``n`` and ``n + 1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.errors import RequestRejectedError
from repro.http.message import HttpRequest
from repro.http.ranges import try_parse_range_header
from repro.http.status import StatusCode


@dataclass(frozen=True)
class CloudflareRule:
    """Cloudflare's measured constraint on Range-bearing requests:
    request line + 2x the Host header line + the Range header line must
    fit in ``budget`` bytes.

    A frozen value rather than a closure, so :meth:`HeaderLimits.range_cap`
    can solve it for ``n``; calling it is the :attr:`HeaderLimits.custom`
    predicate.
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
      Cloudflare's composite rule (a :class:`CloudflareRule`) or an
      opaque guard such as the RFC 7233 §6.1 mitigation.
    """

    max_total_header_bytes: Optional[int] = None
    max_single_header_line_bytes: Optional[int] = None
    max_ranges: Optional[int] = None
    custom: Optional[Callable[[HttpRequest], Optional[str]]] = None

    def range_cap(self, request: HttpRequest, count: int, step: int) -> Optional[int]:
        """The largest range count every declared limit admits.

        ``request`` carries a Range header with ``count`` ranges, and each
        further range adds ``step`` bytes to that header line.  Each limit
        is solved by division; the answer is the smallest of them, or
        ``None`` when no limit is declared or only an opaque ``custom``
        guard could bind.  A limit the rest of the request already breaks
        yields 0.
        """
        caps: List[int] = []
        if self.max_total_header_bytes is not None:
            spare = self.max_total_header_bytes - request.header_block_size()
            caps.append(count + spare // step)
        if self.max_single_header_line_bytes is not None:
            limit = self.max_single_header_line_bytes
            others = [
                request.headers.field_line_size(name)
                for name in request.headers.names()
                if name.lower() != "range"
            ]
            if any(line > limit for line in others):
                caps.append(0)
            else:
                spare = limit - request.headers.field_line_size("Range")
                caps.append(count + spare // step)
        if self.max_ranges is not None:
            caps.append(self.max_ranges)
        if isinstance(self.custom, CloudflareRule):
            spare = self.custom.budget - CloudflareRule.used(request)
            caps.append(count + spare // step)
        return max(0, min(caps)) if caps else None

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
