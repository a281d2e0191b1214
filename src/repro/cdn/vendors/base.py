"""Vendor profile framework.

A :class:`VendorProfile` encodes everything that distinguishes one CDN
from another in this study:

* the **forwarding decision** per Range format (Tables I and II);
* special **fetch flows** (Azure's dual connection with the 8 MB cut,
  StackPath's re-forward after a 206) — implemented by overriding
  :meth:`VendorProfile.fetch` and declared in the fetch-flow fields the
  static bounds read;
* the **attack tables**: what the SBR attack sends (Table IV) and how
  the OBR attack uses the vendor as a front end (Table V);
* the **multi-range reply behavior** (Table III);
* the **request-header limits** (§V-C);
* the **response header weight**, which sets the per-vendor slope of the
  SBR amplification curves (Fig 6a).

Response-header weight is modeled with a realistic named-header set plus
a vendor-typical request-id header padded so the canonical client
response reaches ``client_header_block_target`` bytes.  The targets are
calibrated from Table IV's 1 MB amplification factors (the paper's own
explanation: "due to the great difference resulted from different
response headers inserted by CDNs, the slope ... is quite different").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Dict, List, Mapping, Optional, Set, Tuple

from enum import Enum

from repro.cdn.limits import HeaderLimits
from repro.cdn.multirange import MultiRangeReplyBehavior
from repro.cdn.policy import ForwardDecision, ForwardPolicy
from repro.cdn.window import ContentWindow
from repro.http.body import Body, SyntheticBody
from repro.http.encoding import IDENTITY, accepted_codings, accepts_encoding
from repro.http.headers import Headers
from repro.http.message import HttpRequest, HttpResponse
from repro.http.multipart import DEFAULT_BOUNDARY
from repro.http.ranges import ByteRangeSpec, RangeSpecifier, SuffixByteRangeSpec, parse_content_range
from repro.http.status import StatusCode


class SpecShape(Enum):
    """Structural shape of a parsed Range header, the unit vendor policy
    tables switch on."""

    SINGLE_CLOSED = "single-closed"  # bytes=first-last
    SINGLE_OPEN = "single-open"      # bytes=first-
    SINGLE_SUFFIX = "single-suffix"  # bytes=-suffix
    MULTI = "multi"                  # two or more specs


def classify_spec(spec: RangeSpecifier) -> SpecShape:
    """Classify a parsed Range header into a :class:`SpecShape`."""
    if spec.is_multi:
        return SpecShape.MULTI
    only = spec.first
    if isinstance(only, SuffixByteRangeSpec):
        return SpecShape.SINGLE_SUFFIX
    assert isinstance(only, ByteRangeSpec)
    return SpecShape.SINGLE_OPEN if only.is_open_ended else SpecShape.SINGLE_CLOSED

class EncodingPolicy(Enum):
    """How a CDN treats the client's ``Accept-Encoding`` on the way to
    the origin (the CCFC behavior table, arXiv 2409.00712 §IV)."""

    #: Relay the client's header unchanged (safe).
    FORWARD = "forward"
    #: Drop the header; the origin negotiates nothing (safe).
    STRIP = "strip"
    #: Replace it with the edge's own preferred codings regardless of
    #: what the client accepts — the CCFC-vulnerable behavior.
    REWRITE = "rewrite"
    #: Intersect the client's codings with the edge's; request
    #: ``identity`` when the intersection is empty (the mitigation).
    NORMALIZE = "normalize"


#: Per-coding compressed-size ratios the simulation models.  The CCFC
#: paper's amplification stems from highly compressible payloads
#: (zeros, repetitive text): brotli reaches ~2000:1 and gzip ~1000:1 on
#: such content, which is what these ratios encode.  Read-only, since
#: every profile shares it.
DEFAULT_COMPRESSION_RATIOS: Mapping[str, float] = MappingProxyType({
    "br": 0.0005,
    "gzip": 0.001,
    IDENTITY: 1.0,
})


#: ``exchange`` callback a node hands to a profile's fetch flow: send one
#: upstream request over a fresh connection, optionally capping how many
#: response payload bytes are delivered (connection cut), and get the
#: response back.
ExchangeFn = Callable[..., HttpResponse]


@dataclass(frozen=True)
class VendorConfig:
    """Customer-visible configuration knobs that gate vulnerability.

    * ``origin_range_option`` — the Alibaba/Tencent/Huawei "Range" origin
      option.  ``None`` means "vendor default".  For Alibaba and Tencent
      the *disable* setting (False) is the vulnerable one; for Huawei the
      *enable* setting (True) is (paper §V-A item 1).
    * ``cacheable`` — whether the target path is configured cacheable
      (Cloudflare's SBR condition).
    * ``bypass_cache`` — whether the target path is configured *Bypass*
      (Cloudflare's OBR condition).
    * ``cache_enabled`` — whether the node's edge cache stores responses
      at all (independent of the forwarding decision).
    """

    origin_range_option: Optional[bool] = None
    cacheable: bool = True
    bypass_cache: bool = False
    cache_enabled: bool = True


class EdgeState:
    """What one edge node remembers between requests on its profile's
    behalf: the ``(host, target, range value)`` requests KeyCDN has seen
    (§V-A item 4), and a slicing edge's slices by ``(host, target,
    index)`` and complete lengths by ``(host, target)``.

    The node owns it, as it owns its cache, and hands it to the profile
    in each :class:`VendorContext`; a profile itself holds no state, so
    one instance serves every node of its vendor."""

    __slots__ = ("seen", "slices", "lengths")

    def __init__(self) -> None:
        self.seen: Set[Tuple[str, str, str]] = set()
        self.slices: Dict[Tuple[str, str, int], Body] = {}
        self.lengths: Dict[Tuple[str, str], int] = {}


class VendorContext:
    """Per-request context a profile's decision logic may consult.

    The context records whether the decision read the size hint
    (``size_read``), so a static search that never read it knows its
    answer holds at every size (:class:`ContextReads`).  ``state`` is the
    asking node's :class:`EdgeState`; a context made without one (a
    static ask) gets a fresh one, as a fresh node would have."""

    __slots__ = ("config", "_size_hint", "size_read", "state")

    def __init__(
        self,
        config: VendorConfig,
        resource_size_hint: Optional[int] = None,
        state: Optional[EdgeState] = None,
    ) -> None:
        self.config = config
        self._size_hint = resource_size_hint
        self.size_read = False
        self.state = state if state is not None else EdgeState()

    @property
    def resource_size_hint(self) -> Optional[int]:
        """Size of the target representation, when the node can know it
        (cached metadata in real CDNs; supplied by the deployment here).
        ``None`` means unknown."""
        self.size_read = True
        return self._size_hint


class ContextReads:
    """Whether a decision in one computation read its context's size
    hint.  The computation creates one and hands it to every helper that
    builds a :class:`VendorContext` for it
    (``repro.analysis.classify.forwarded_verbatim``), which sets
    ``size`` once a decision read the hint."""

    __slots__ = ("size",)

    def __init__(self) -> None:
        self.size = False


@dataclass
class FetchResult:
    """Outcome of a profile's upstream fetch flow.

    Exactly one of ``window`` / ``passthrough`` is set:

    * ``window`` — the node now holds content and should answer the
      client's ranges from it;
    * ``passthrough`` — the upstream response should be relayed (laziness
      on a 206, or an upstream error).
    """

    window: Optional[ContentWindow] = None
    passthrough: Optional[HttpResponse] = None
    policy: Optional[ForwardPolicy] = None
    upstream_status: int = 0
    cacheable_full: bool = False
    #: Upstream response headers, for relaying validators and Content-Type
    #: when the node answers from a window.
    source_headers: Optional["Headers"] = None

    def __post_init__(self) -> None:
        if (self.window is None) == (self.passthrough is None):
            raise ValueError("FetchResult needs exactly one of window/passthrough")


class VendorProfile:
    """Base class with the default single-connection fetch flow.

    Subclasses set the class attributes and override
    :meth:`forward_decision` (and, for multi-exchange flows,
    :meth:`fetch`).  A built profile is an immutable value: assigning an
    attribute raises, and what a vendor remembers between requests lives
    in the node's :class:`EdgeState`.  So one instance per vendor (or per
    vendor and mitigation) is shared by every deployment and thread.
    """

    #: Registry key, e.g. ``"akamai"``.
    name: str = "base"
    #: Human-readable name as the paper prints it.
    display_name: str = "Base"
    #: How the node replies to multi-range requests (Table III).
    reply_behavior: MultiRangeReplyBehavior = MultiRangeReplyBehavior.COALESCE
    #: Azure-style cap on parts in a multipart reply (None = unlimited).
    reply_max_parts: Optional[int] = None
    #: Boundary used for multipart replies (its length contributes to the
    #: OBR per-part overhead).
    multipart_boundary: str = DEFAULT_BOUNDARY
    #: Target size of the client-response header block (status line
    #: through blank line), calibrated against Table IV; 0 disables
    #: padding.
    client_header_block_target: int = 0
    #: Name of the vendor-typical id header used for padding.
    pad_header_name: str = "X-Request-Id"
    #: ``Server`` header value the vendor stamps on client responses.
    server_header: str = "cdn"
    #: Whether the vendor keeps its back-to-origin connection alive when
    #: the client connection is abnormally aborted.  Most CDNs break the
    #: back-end fetch (their defense against the Triukose et al.
    #: connection-drop attack); the paper names CDNsun and CDN77 as
    #: maintaining it (§IV-C).
    maintains_backend_on_client_abort: bool = False
    #: Table IV column 2: the Range values one SBR attack round sends
    #: (read through :meth:`sbr_cases_at`).
    sbr_cases: Tuple[str, ...] = ("bytes=0-0",)
    #: ``(size, cases)``: against a target of ``size`` bytes or more the
    #: round sends ``cases`` instead (Azure's 8 MB and Huawei's 10 MB
    #: switches); ``None``: no switch.
    sbr_cases_switch: Optional[Tuple[int, Tuple[str, ...]]] = None
    #: Table V column 3: the first spec of the overlapping multi-range
    #: an OBR attack sends through this vendor as the front end
    #: (``None``: plain ``0-``).
    obr_leading_spec: Optional[str] = None
    #: The configuration the Table V setup runs this vendor with as the
    #: front end (``None``: its default configuration).
    obr_front_config: Optional[VendorConfig] = None

    # What the fetch flow does beyond one exchange under
    # :meth:`forward_decision`.  Each vendor's :meth:`fetch` and the
    # static SBR bound (``repro.analysis.bounds``) read the same fields.

    #: Payload bytes after which the flow cuts a Deletion fetch's
    #: connection (Azure's 8 MB cut plus slop); ``None``: never.
    deletion_cut: Optional[int] = None
    #: A window ``(first, last)`` the flow also fetches, with a second
    #: exchange, for a single closed range inside it (Azure's
    #: expansion window); see :meth:`second_window_for`.
    second_window: Optional[Tuple[int, int]] = None
    #: Whether the flow re-forwards a single-range request without its
    #: Range header once the origin answered it 206, pulling the full
    #: representation whatever the decision table said (StackPath).
    refetches_after_partial: bool = False
    #: Slice size of a flow that fetches a single closed range as the
    #: fixed-size slices covering it (``SlicingProfile``); ``None``: no
    #: slicing.
    slice_size: Optional[int] = None
    #: How the vendor treats the client's ``Accept-Encoding`` upstream
    #: (the CCFC behavior table).
    encoding_policy: EncodingPolicy = EncodingPolicy.FORWARD
    #: Codings the edge itself negotiates with the origin, in preference
    #: order; only consulted under REWRITE/NORMALIZE.
    edge_accept_encoding: Tuple[str, ...] = ()
    #: Whether the edge decompresses an origin body whose coding the
    #: client did not accept — the conversion the CCFC attack amplifies.
    edge_decompresses: bool = False
    #: Compressed-size model per coding (fraction of the identity size).
    compression_ratios: Mapping[str, float] = DEFAULT_COMPRESSION_RATIOS
    #: Request-header limits enforced at ingress (§V-C); set per instance.
    limits: HeaderLimits

    def __init__(self, limits: Optional[HeaderLimits] = None) -> None:
        self._set(limits=limits if limits is not None else self.default_limits())

    def _set(self, **fields: object) -> None:
        """Set fields while constructing; only constructors call this."""
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable; cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable; cannot delete {name!r}")

    # -- hooks subclasses override ------------------------------------------------

    @classmethod
    def default_config(cls) -> VendorConfig:
        """The vendor's default customer configuration (the paper ran all
        experiments with defaults)."""
        return VendorConfig()

    def effective_config(self) -> VendorConfig:
        """The configuration a deployment applies when none is given.

        For registry profiles this is just :meth:`default_config`;
        wrapper profiles (``repro.defense.mitigations``) override it to
        return the *wrapped* vendor's default, so a mitigated profile
        survives round-trips through deployment and grid construction
        with the inner vendor's configuration intact.
        """
        return type(self).default_config()

    def default_limits(self) -> HeaderLimits:
        return HeaderLimits()

    def forward_decision(
        self,
        request: HttpRequest,
        spec: Optional[RangeSpecifier],
        ctx: VendorContext,
    ) -> ForwardDecision:
        """Pick the forwarding policy for this request (Tables I/II)."""
        return ForwardDecision.lazy(request.range_header)

    def forward_headers(self) -> List[Tuple[str, str]]:
        """Headers the vendor adds to back-to-origin requests."""
        return [("Via", f"1.1 {self.name}")]

    def response_headers(self) -> List[Tuple[str, str]]:
        """Vendor-identifying headers added to client responses (before
        padding)."""
        return []

    @classmethod
    def sbr_cases_at(cls, resource_size: int) -> Tuple[str, ...]:
        """Table IV column 2 against a ``resource_size``-byte target."""
        switch = cls.sbr_cases_switch
        if switch is not None and resource_size >= switch[0]:
            return switch[1]
        return cls.sbr_cases

    def second_window_for(
        self, spec: RangeSpecifier, complete_length: int
    ) -> Optional[Tuple[int, int]]:
        """The :attr:`second_window` the flow fetches too for ``spec``
        against a ``complete_length``-byte representation: when ``spec``
        is one closed range inside it and the representation reaches
        into it.  ``None`` otherwise."""
        window = self.second_window
        if (
            window is None
            or complete_length <= window[0]
            or classify_spec(spec) is not SpecShape.SINGLE_CLOSED
        ):
            return None
        only = spec.first
        assert isinstance(only, ByteRangeSpec) and only.last is not None
        return window if window[0] <= only.first and only.last <= window[1] else None

    # -- default fetch flow -------------------------------------------------------

    def fetch(
        self,
        request: HttpRequest,
        spec: Optional[RangeSpecifier],
        ctx: VendorContext,
        exchange: ExchangeFn,
    ) -> FetchResult:
        """One upstream exchange under :meth:`forward_decision`'s policy."""
        decision = self.forward_decision(request, spec, ctx)
        upstream_request = self.build_upstream_request(request, decision)
        response = exchange(upstream_request, note=f"forward:{decision.policy.value}")
        return self.interpret_upstream(decision, response, spec)

    def compressed_size(self, coding: str, size: int) -> int:
        """Modeled on-the-wire size of a ``size``-byte body under
        ``coding`` (unknown codings pass through uncompressed)."""
        ratio = self.compression_ratios.get(coding.lower(), 1.0)
        if size <= 0 or ratio >= 1.0:
            return size
        return max(1, math.ceil(size * ratio))

    def upstream_accept_encoding(self, client_value: Optional[str]) -> Optional[str]:
        """The ``Accept-Encoding`` value this vendor sends upstream for a
        client request carrying ``client_value`` (``None`` = header
        absent; returning ``None`` = send no header).

        The policy only engages when the client *sent* the header —
        requests without one (every SBR/OBR shape) pass through every
        vendor byte-identically.
        """
        if client_value is None:
            return None
        if self.encoding_policy is EncodingPolicy.STRIP:
            return None
        if self.encoding_policy is EncodingPolicy.REWRITE and self.edge_accept_encoding:
            return ", ".join(self.edge_accept_encoding)
        if self.encoding_policy is EncodingPolicy.NORMALIZE:
            shared = accepted_codings(client_value, self.edge_accept_encoding)
            return ", ".join(shared) if shared else IDENTITY
        return client_value

    def build_upstream_request(
        self, request: HttpRequest, decision: ForwardDecision
    ) -> HttpRequest:
        """Copy the client request and rewrite its Range header per the
        forwarding decision (and its Accept-Encoding per the vendor's
        encoding policy)."""
        upstream = request.copy()
        if decision.forwarded_range is None:
            upstream.headers.remove("Range")
        else:
            upstream.headers.set("Range", decision.forwarded_range)
        client_accept = request.headers.get("Accept-Encoding")
        if client_accept is not None:
            negotiated = self.upstream_accept_encoding(client_accept)
            if negotiated is None:
                upstream.headers.remove("Accept-Encoding")
            elif negotiated != client_accept:
                upstream.headers.set("Accept-Encoding", negotiated)
        for name, value in self.forward_headers():
            if name not in upstream.headers:
                upstream.headers.add(name, value)
        return upstream

    def interpret_upstream(
        self,
        decision: ForwardDecision,
        response: HttpResponse,
        spec: Optional[RangeSpecifier],
    ) -> FetchResult:
        """Turn the upstream response into a window or a passthrough."""
        if response.status >= 300:
            return FetchResult(
                passthrough=response,
                policy=decision.policy,
                upstream_status=response.status,
            )
        if response.status == StatusCode.OK:
            # The node holds the full representation — whether it asked
            # for it (Deletion) or the origin ignored the Range header.
            # RFC 2616 directs a range-aware proxy that receives a full
            # entity to answer only the requested range, so a window is
            # right even under Laziness; this is the OBR back-end path.
            if decision.policy is ForwardPolicy.LAZINESS and spec is None:
                return FetchResult(
                    passthrough=response,
                    policy=decision.policy,
                    upstream_status=200,
                    cacheable_full=True,
                )
            return FetchResult(
                window=ContentWindow.full(response.body),
                policy=decision.policy,
                upstream_status=200,
                cacheable_full=True,
                source_headers=response.headers,
            )
        if response.status == StatusCode.PARTIAL_CONTENT:
            content_type = response.content_type or ""
            if content_type.startswith("multipart/byteranges"):
                # A multipart we did not assemble: relay it verbatim.
                return FetchResult(
                    passthrough=response,
                    policy=decision.policy,
                    upstream_status=206,
                )
            if decision.policy is ForwardPolicy.LAZINESS:
                return FetchResult(
                    passthrough=response,
                    policy=decision.policy,
                    upstream_status=206,
                )
            content_range = response.headers.get("Content-Range")
            if content_range is None:
                return FetchResult(
                    passthrough=response,
                    policy=decision.policy,
                    upstream_status=206,
                )
            resolved, complete = parse_content_range(content_range)
            if resolved is None or complete is None:
                return FetchResult(
                    passthrough=response,
                    policy=decision.policy,
                    upstream_status=206,
                )
            return FetchResult(
                window=ContentWindow(
                    body=response.body, offset=resolved.start, complete_length=complete
                ),
                policy=decision.policy,
                upstream_status=206,
                source_headers=response.headers,
            )
        return FetchResult(
            passthrough=response, policy=decision.policy, upstream_status=response.status
        )

    # -- response shaping -----------------------------------------------------------

    def pad_response(self, response: HttpResponse) -> None:
        """Pad the response header block to the calibrated vendor weight."""
        target = self.client_header_block_target
        if target <= 0:
            return
        overhead = len(self.pad_header_name) + 4  # "Name: " + CRLF
        current = response.header_block_size()
        deficit = target - current - overhead
        if deficit > 0:
            pattern = "0123456789abcdef"
            value = (pattern * (deficit // len(pattern) + 1))[:deficit]
            response.headers.add(self.pad_header_name, value)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


# -- client responses ----------------------------------------------------------------

#: The ``Date`` every simulated edge response carries.
FIXED_DATE = "Fri, 05 Jun 2020 08:00:00 GMT"


def convert_encoded_response(
    profile: VendorProfile,
    response: HttpResponse,
    size_hint: Optional[int],
    client_accept: Optional[str],
) -> HttpResponse:
    """Edge-side compression format conversion (arXiv 2409.00712 §III).

    When the vendor decompresses at the edge and the client cannot
    accept the coding the origin chose, the edge inflates the body back
    to the identity representation before replying: ``Content-Encoding``
    is dropped and ``Content-Length`` grows to the decompressed size
    (taken from the deployment's size hint — without one the edge cannot
    know the inflated size and relays the response untouched).  Returns
    ``response`` itself when no conversion applies.

    The one definition shared by the live pipeline
    (:class:`~repro.cdn.node.CdnNode`) and the closed-form CCFC mirror
    (:func:`~repro.analysis.bounds.ccfc_mirror`) — bound == simulation
    holds by construction.
    """
    if not profile.edge_decompresses:
        return response
    if int(response.status) != int(StatusCode.OK):
        return response
    encoding = response.headers.get("Content-Encoding")
    if encoding is None or encoding.lower() == IDENTITY:
        return response
    if client_accept is None or accepts_encoding(client_accept, encoding):
        return response
    if size_hint is None:
        return response
    converted = response.copy()
    converted.headers.remove("Content-Encoding")
    converted.headers.set("Content-Length", str(size_hint))
    converted.body = SyntheticBody(size_hint)
    return converted


def finalize_client_response(profile: VendorProfile, response: HttpResponse) -> HttpResponse:
    """Stamp vendor identity headers and pad to the calibrated weight.

    Shared by :class:`~repro.cdn.node.CdnNode` and the CCFC mirror, so
    both apply byte-identical header weighting.
    """
    headers = response.headers
    headers.set("Server", profile.server_header)
    if "Date" not in headers:
        headers.add("Date", FIXED_DATE)
    if "Accept-Ranges" not in headers:
        headers.add("Accept-Ranges", "bytes")
    for name, value in profile.response_headers():
        if name not in headers:
            headers.add(name, value)
    profile.pad_response(response)
    return response
