"""CDN-side mitigations (paper §VI-C).

The paper recommends three implementation changes, each available here
as a wrapper over any vendor profile:

* :func:`with_laziness` — forward the Range header unchanged, giving up
  range-driven caching entirely.  This is what G-Core shipped ("slice"
  option enabled by default) and it eliminates the SBR attack.
* :func:`with_bounded_expansion` — keep prefetching, but widen the range
  by at most a few KB ("it is acceptable to increase the byte range by
  8KB, which will not cause too much traffic difference").
* :func:`with_overlap_rejection` — enforce RFC 7233 §6.1: reject range
  requests with more than two overlapping ranges or many small ranges
  (CDN77's deployed fix against the OBR attack).

A :class:`MitigatedProfile` keeps the wrapped vendor's identity — its
header weight, limits, boundary — and only replaces the vulnerable
policy, so before/after comparisons isolate the mitigation's effect
(see ``benchmarks/bench_ablation_mitigations.py``).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import replace
from itertools import accumulate
from typing import Callable, List, Optional, Sequence, Tuple

from repro.cdn.limits import HeaderLimits
from repro.cdn.multirange import MultiRangeReplyBehavior
from repro.cdn.policy import ForwardDecision, ForwardPolicy, bounded_expansion
from repro.cdn.vendors.base import (
    EncodingPolicy,
    ExchangeFn,
    FetchResult,
    SpecShape,
    VendorConfig,
    VendorContext,
    VendorProfile,
    classify_spec,
)
from repro.cdn.window import ContentWindow
from repro.errors import RangeNotSatisfiableError
from repro.http.body import CompositeBody
from repro.http.message import HttpRequest
from repro.http.ranges import (
    ByteRangeSpec,
    RangeRun,
    RangeSpecifier,
    parse_content_range,
    ranges_overlap,
    try_parse_range_header,
)
from repro.http.status import StatusCode

#: RFC 7233 §6.1 heuristics: "more than two overlapping ranges or many
#: small ranges".
MAX_OVERLAPPING_RANGES = 2
MANY_SMALL_RANGES = 16
SMALL_RANGE_BYTES = 64
#: The representation size the guard resolves ranges against.
GUARD_SIZE_HINT = 1 << 30


def _overlapping_pair_count(resolved: Sequence[RangeRun]) -> int:
    """Number of unordered range pairs that overlap, over ``(range,
    count)`` runs with every repeat counted as its own range.

    Equivalent to the naive all-pairs scan of the expanded ranges (pairs
    with ``a.start <= b.end and b.start <= a.end``) but O(r log r) in
    the number of runs ``r``: the ``c`` copies of a run overlap each
    other pairwise, and in start order each range overlaps exactly the
    earlier-starting ranges whose end reaches its start.
    """
    by_end = sorted((r.end, count) for r, count in resolved)
    ends = [end for end, _ in by_end]
    # ``ended[i]``: how many ranges the first ``i`` entries of ``by_end`` hold.
    ended = [0, *accumulate(count for _, count in by_end)]
    pairs = earlier = 0
    for start, count in sorted((r.start, count) for r, count in resolved):
        # Ranges ending before ``start`` cannot overlap this run; the
        # ``earlier`` ones that remain all do, and so do its own copies.
        pairs += count * (earlier - ended[bisect_left(ends, start)])
        pairs += count * (count - 1) // 2
        earlier += count
    return pairs


def rfc7233_multirange_guard() -> Callable[[HttpRequest], Optional[str]]:
    """A request-limit predicate implementing RFC 7233 §6.1's advice.

    Returns a callable suitable for
    :attr:`~repro.cdn.limits.HeaderLimits.custom`.  The overlap check
    resolves ranges against ``GUARD_SIZE_HINT`` (open ranges overlap
    regardless of the exact size, so a large hint is safe).
    """

    def check(request: HttpRequest) -> Optional[str]:
        spec = try_parse_range_header(request.headers.get("Range"))
        if spec is None or not spec.is_multi:
            return None
        try:
            resolved = spec.resolve(GUARD_SIZE_HINT)
        except RangeNotSatisfiableError:  # unsatisfiable: nothing to guard
            return None
        overlapping = _overlapping_pair_count(resolved)
        if overlapping > MAX_OVERLAPPING_RANGES:
            return f"{overlapping} overlapping range pairs (RFC 7233 6.1 guard)"
        small = sum(count for r, count in resolved if r.length <= SMALL_RANGE_BYTES)
        if small >= MANY_SMALL_RANGES:
            return f"{small} small ranges (RFC 7233 6.1 guard)"
        satisfiable = sum(count for _, count in resolved)
        if ranges_overlap(resolved) and satisfiable > MAX_OVERLAPPING_RANGES:
            return "overlapping multi-range request (RFC 7233 6.1 guard)"
        return None

    return check


#: The wrapped vendor's observable identity, which every wrapper keeps.
_IDENTITY = (
    "name",
    "multipart_boundary",
    "client_header_block_target",
    "pad_header_name",
    "server_header",
    "encoding_policy",
    "edge_accept_encoding",
    "edge_decompresses",
    "compression_ratios",
)


class WrappedProfile(VendorProfile):
    """A profile standing in for the vendor it wraps: it keeps the
    wrapped vendor's observable identity (name, response headers,
    padding weight, boundary, encoding behavior) and configuration, and
    ``fields`` replace the rest."""

    inner: VendorProfile

    def __init__(self, inner: VendorProfile, limits: HeaderLimits, **fields: object) -> None:
        super().__init__(limits=limits)
        self._set(inner=inner, **{name: getattr(inner, name) for name in _IDENTITY})
        self._set(**fields)

    def effective_config(self) -> VendorConfig:
        """The wrapped vendor's configuration — wrapped profiles must
        round-trip through ``classify_sbr`` and deployment construction
        with the inner vendor's config (Huawei's Range origin option,
        Cloudflare's cacheability) intact."""
        return self.inner.effective_config()

    def forward_headers(self) -> List[Tuple[str, str]]:
        return self.inner.forward_headers()

    def response_headers(self) -> List[Tuple[str, str]]:
        return self.inner.response_headers()


class MitigatedProfile(WrappedProfile):
    """A vendor profile with its Range forwarding policy replaced.

    Only the policy under test changes; the limits are the wrapped
    vendor's.  The default single-connection fetch flow is used
    deliberately — the multi-connection quirks (Azure, StackPath,
    KeyCDN) are part of what the mitigations remove.  The encoding
    arguments, when given, replace the vendor's CCFC behavior too.
    """

    forwarding: str
    expansion_slack: int

    def __init__(
        self,
        inner: VendorProfile,
        forwarding: str = "laziness",
        expansion_slack: int = 8 * 1024,
        reply_behavior: Optional[MultiRangeReplyBehavior] = None,
        overlap_guard: bool = False,
        encoding_policy: Optional[EncodingPolicy] = None,
        edge_accept_encoding: Optional[Tuple[str, ...]] = None,
        edge_decompresses: Optional[bool] = None,
    ) -> None:
        if forwarding not in ("laziness", "bounded-expansion"):
            raise ValueError(f"unknown mitigation forwarding mode {forwarding!r}")
        limits = inner.limits
        if overlap_guard:
            # The guard enforces the cap; declaring it as well lets
            # ``HeaderLimits.range_cap`` solve it for the max-n search.
            limits = replace(
                limits,
                custom=_chain_guards(limits.custom, rfc7233_multirange_guard()),
                max_overlapping_ranges=MAX_OVERLAPPING_RANGES,
            )
        encoding = {
            "encoding_policy": encoding_policy,
            "edge_accept_encoding": edge_accept_encoding,
            "edge_decompresses": edge_decompresses,
        }
        super().__init__(
            inner,
            limits,
            forwarding=forwarding,
            expansion_slack=expansion_slack,
            display_name=f"{inner.display_name} (mitigated)",
            reply_behavior=(
                reply_behavior if reply_behavior is not None else inner.reply_behavior
            ),
            reply_max_parts=inner.reply_max_parts,
            **{name: value for name, value in encoding.items() if value is not None},
        )

    def forward_decision(
        self,
        request: HttpRequest,
        spec: Optional[RangeSpecifier],
        ctx: VendorContext,
    ) -> ForwardDecision:
        if spec is None:
            return ForwardDecision.lazy(request.range_header)
        if self.forwarding == "laziness":
            return ForwardDecision.lazy(request.range_header)
        if classify_spec(spec) is SpecShape.SINGLE_CLOSED:
            only = spec.first
            assert isinstance(only, ByteRangeSpec) and only.last is not None
            first, last = bounded_expansion(only.first, only.last, slack=self.expansion_slack)
            return ForwardDecision.expand(f"bytes={first}-{last}")
        return ForwardDecision.lazy(request.range_header)


def _chain_guards(
    first: Optional[Callable[[HttpRequest], Optional[str]]],
    second: Callable[[HttpRequest], Optional[str]],
) -> Callable[[HttpRequest], Optional[str]]:
    def check(request: HttpRequest) -> Optional[str]:
        if first is not None:
            message = first(request)
            if message:
                return message
        return second(request)

    return check


def with_laziness(inner: VendorProfile) -> MitigatedProfile:
    """The Laziness mitigation (G-Core's deployed fix)."""
    return MitigatedProfile(inner, forwarding="laziness")


def with_bounded_expansion(inner: VendorProfile, slack: int = 8 * 1024) -> MitigatedProfile:
    """The bounded-expansion mitigation (+``slack`` bytes, default 8 KB)."""
    return MitigatedProfile(inner, forwarding="bounded-expansion", expansion_slack=slack)


def with_overlap_rejection(inner: VendorProfile) -> MitigatedProfile:
    """The RFC 7233 §6.1 guard (CDN77's deployed fix): overlapping /
    many-small multi-range requests are rejected at ingress, and replies
    coalesce instead of honoring duplicates."""
    return MitigatedProfile(
        inner,
        forwarding="laziness",
        reply_behavior=MultiRangeReplyBehavior.COALESCE,
        overlap_guard=True,
    )


class SlicingProfile(WrappedProfile):
    """Slice-based range fetching — G-Core's deployed fix, properly.

    Instead of Deletion (pull everything) or pure Laziness (cache
    nothing), the edge fetches fixed-size *slices* covering the requested
    bytes — ``Range: bytes=<k*S>-<(k+1)*S - 1>`` — and caches each slice
    independently (the nginx ``slice`` module's behavior, which is what
    "the slice option" enables).  Per-request origin traffic is bounded
    by the slice size regardless of the resource size, killing the SBR
    amplification while keeping range-driven caching.

    Slicing applies to single closed ranges (the SBR shape).  Open-ended
    and suffix ranges need the representation length up front and are
    forwarded lazily; multi-range requests are forwarded lazily too.

    The slices and the learned lengths are the edge node's
    (:attr:`EdgeState.slices <repro.cdn.vendors.base.EdgeState>`), so
    every node caches its own.
    """

    slice_size: int

    def __init__(self, inner: VendorProfile, slice_size: int = 1 << 20) -> None:
        if slice_size < 1:
            raise ValueError(f"slice_size must be >= 1, got {slice_size}")
        super().__init__(
            inner,
            inner.limits,
            slice_size=slice_size,
            display_name=f"{inner.display_name} (sliced)",
            reply_behavior=MultiRangeReplyBehavior.COALESCE,
        )

    def fetch(
        self,
        request: HttpRequest,
        spec: Optional[RangeSpecifier],
        ctx: VendorContext,
        exchange: ExchangeFn,
    ) -> FetchResult:
        if spec is None or classify_spec(spec) is not SpecShape.SINGLE_CLOSED:
            return super().fetch(request, spec, ctx, exchange)

        only = spec.first
        assert isinstance(only, ByteRangeSpec) and only.last is not None
        first_slice = only.first // self.slice_size
        last_slice = only.last // self.slice_size
        resource_key = (request.host or "", request.target)
        slices, lengths = ctx.state.slices, ctx.state.lengths

        pieces = []
        complete = lengths.get(resource_key)
        source_headers = None
        for index in range(first_slice, last_slice + 1):
            if complete is not None and index * self.slice_size >= complete:
                break  # requested range runs past EOF; later slices vanish
            cached = slices.get(resource_key + (index,))
            if cached is not None:
                pieces.append(cached)
                continue
            slice_first = index * self.slice_size
            slice_last = (index + 1) * self.slice_size - 1
            upstream = self.build_upstream_request(
                request, ForwardDecision.expand(f"bytes={slice_first}-{slice_last}")
            )
            response = exchange(upstream, note=f"slice:{index}")
            if response.status == StatusCode.OK:
                # Origin without range support: take the whole body once.
                complete = len(response.body)
                lengths[resource_key] = complete
                return FetchResult(
                    window=ContentWindow.full(response.body),
                    policy=ForwardPolicy.EXPANSION,
                    upstream_status=200,
                    cacheable_full=True,
                    source_headers=response.headers,
                )
            if response.status != StatusCode.PARTIAL_CONTENT:
                return FetchResult(
                    passthrough=response,
                    policy=ForwardPolicy.EXPANSION,
                    upstream_status=response.status,
                )
            content_range = response.headers.get("Content-Range")
            resolved, complete_from_header = (
                parse_content_range(content_range) if content_range else (None, None)
            )
            if resolved is None or complete_from_header is None:
                return FetchResult(
                    passthrough=response,
                    policy=ForwardPolicy.EXPANSION,
                    upstream_status=206,
                )
            complete = complete_from_header
            lengths[resource_key] = complete
            slices[resource_key + (index,)] = response.body
            pieces.append(response.body)
            source_headers = response.headers

        if complete is None or not pieces:
            # The whole request was past EOF (the slice fetch 416'd) —
            # fall back to a lazy forward so the origin's 416 relays.
            return super().fetch(request, spec, ctx, exchange)

        window = ContentWindow(
            body=CompositeBody(pieces),
            offset=first_slice * self.slice_size,
            complete_length=complete,
        )
        return FetchResult(
            window=window,
            policy=ForwardPolicy.EXPANSION,
            upstream_status=206,
            source_headers=source_headers,
        )


def with_slicing(inner: VendorProfile, slice_size: int = 1 << 20) -> SlicingProfile:
    """The slice-option mitigation: per-request origin traffic bounded by
    ``slice_size``, with per-slice caching."""
    return SlicingProfile(inner, slice_size=slice_size)


def with_encoding_passthrough(inner: VendorProfile) -> VendorProfile:
    """The CCFC pass-through fix: forward the client's ``Accept-Encoding``
    untouched and never decompress at the edge.

    The compression-conversion amplification (arXiv 2409.00712) needs the
    edge to *rewrite* the negotiation upstream and then inflate the
    compressed origin body for an identity-only client.  Forwarding the
    client's header verbatim makes the origin serve what the client can
    actually consume, so the edge ships bytes one-for-one.
    """
    return MitigatedProfile(
        inner,
        encoding_policy=EncodingPolicy.FORWARD,
        edge_accept_encoding=(),
        edge_decompresses=False,
    )


def with_encoding_normalization(inner: VendorProfile) -> VendorProfile:
    """The CCFC normalization fix: upstream ``Accept-Encoding`` is clamped
    to what the *client* offered (or ``identity`` when it offered
    nothing), instead of the vendor's fixed rewrite list.

    Decompression support stays enabled — it simply never engages,
    because the origin only returns codings the client already accepts.
    """
    return MitigatedProfile(inner, encoding_policy=EncodingPolicy.NORMALIZE)
