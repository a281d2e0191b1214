"""Closed-form worst-case amplification bounds (paper §IV).

The paper derives its amplification factors analytically before
measuring anything: SBR ≈ resource size over the attacker's tiny
response (§IV-B), OBR ≈ ``n·(F + part overhead)`` over one full fetch
(§IV-C).  This module computes those bounds as *sound upper limits* on
what the simulation stack can ever report, from the same inputs the
simulation uses — vendor profiles, header limits, and the overhead
model — but without opening a connection.

Soundness contract (pinned by ``tests/analysis/test_cross_check.py``):
for every cell of the run-all grid,
``simulated factor <= bound.factor``.  Numerators are over-estimated
(header allowances added, per-fetch framing and handshake included) and
denominators under-estimated (body bytes ignored, padding slack
subtracted), so the ratio can only be pessimistic.  The OBR max-n solve
and the exact CCFC mirror live here too; the wire attacks call them.

Every input is read off a profile, never keyed on a vendor's name: the
attack tables (``sbr_cases``, ``obr_leading_spec``) off the registry
class, and the SBR fetch plan off the profile under test — its decision
table plus the fetch-flow fields it declares (``deletion_cut``,
``second_window``, ``refetches_after_partial``, ``slice_size``), which
its own ``fetch`` reads too.  Registry and wrapped (mitigated) profiles
take the one derivation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.analysis.classify import (
    MAX_OVERLAPS,
    TARGET_HOST,
    exploited_request,
    forwarded_verbatim,
    probe_request,
)
from repro.cdn.limits import HeaderLimits, RequestHead
from repro.cdn.multirange import MultiRangeReplyBehavior
from repro.cdn.vendors import create_profile, profile_class
from repro.cdn.vendors.base import (
    ContextReads,
    EdgeState,
    SpecShape,
    VendorContext,
    VendorProfile,
    classify_spec,
    convert_encoded_response,
    finalize_client_response,
)
from repro.core.amplification import AmplificationReport
from repro.core.cachebusting import CacheBuster
from repro.errors import (
    ConfigurationError,
    RangeNotSatisfiableError,
    RequestRejectedError,
)
from repro.http.encoding import IDENTITY, accepts_encoding
from repro.http.grammar import obr_value_size, overlapping_open_ranges_value
from repro.http.headers import Headers
from repro.http.message import HttpRequest, HttpResponse
from repro.http.ranges import RangeSpecifier, try_parse_range_header
from repro.netsim.overhead import NullOverheadModel, OverheadModel, TcpOverheadModel
from repro.netsim.tap import CDN_ORIGIN, CLIENT_CDN, SegmentStats
from repro.obs.memo import Memo
from repro.origin.resource import Resource
from repro.origin.server import OriginServer

MB = 1 << 20

#: Upper bound on any origin response header block in this simulation
#: (status line through blank line).  The Apache-like origin emits well
#: under 400 bytes; 1 KB leaves slack for relayed validators.
ORIGIN_HEADER_ALLOWANCE = 1024

#: Upper bound on a CDN's own response header block *above* its
#: calibrated padding target (vendor identity headers, multipart
#: Content-Type, Content-Length digits).
CDN_HEADER_ALLOWANCE = 1024

#: ``pad_response`` guarantees the client header block reaches
#: ``client_header_block_target`` minus at most the pad header's own
#: framing (name + ``": "`` + CRLF).  The longest pad header name in the
#: registry is 15 characters, so 40 bytes of slack is safe.
PAD_HEADER_SLACK = 40

#: Absolute floor on any HTTP response's wire size (status line plus the
#: mandatory headers every node emits).
RESPONSE_WIRE_FLOOR = 64

#: Per-part framing allowance for an origin ``multipart/byteranges``
#: reply to a lazily forwarded multi-range request.  The Apache-like
#: origin's actual per-part overhead (13-hex-digit boundary, Content-Type
#: and Content-Range lines) stays under 120 bytes; 256 leaves slack.
MULTIPART_PART_ALLOWANCE = 256

#: Closing delimiter allowance for such a multipart reply.
MULTIPART_CLOSER_ALLOWANCE = 64

#: Content type of the OBR target (``/1KB.bin``), which every multipart
#: part repeats.
OBR_CONTENT_TYPE = "application/octet-stream"


#: One back-to-origin exchange in a worst-case fetch plan: an upper
#: bound on the response *payload* bytes the origin sends, and the
#: delivery cap the node imposes (Azure's connection cut), if any.
_Fetch = Tuple[int, Optional[int]]


@dataclass(frozen=True)
class SbrBound:
    """Static worst-case bound for one SBR cell (vendor × size)."""

    vendor: str
    resource_size: int
    #: Range values one attack round sends (Table IV column 2).
    range_cases: Tuple[str, ...]
    #: Back-to-origin exchanges one round triggers at most.
    origin_fetches: int
    #: Upper bound on victim-side (cdn-origin) response bytes per round.
    origin_bytes_upper: int
    #: Client responses one round produces.
    client_responses: int
    #: Lower bound on attacker-side (client-cdn) response bytes per round.
    client_bytes_lower: int

    @property
    def factor(self) -> float:
        """Upper bound on the simulated amplification factor."""
        if self.client_bytes_lower <= 0:
            return 0.0
        return self.origin_bytes_upper / self.client_bytes_lower


def sbr_bound(
    vendor: str,
    resource_size: int,
    overhead: Optional[OverheadModel] = None,
) -> SbrBound:
    """Closed-form worst-case SBR amplification for one vendor × size.

    Mirrors :class:`~repro.core.sbr.SbrAttack` analytically: the
    numerator upper-bounds the per-round ``cdn-origin`` response traffic
    under the registry profile's fetch plan (:func:`_case_fetches`,
    multi-connection flows and Azure's delivery cut included), the
    denominator lower-bounds the per-round ``client-cdn`` response
    traffic from the calibrated header-padding targets.
    """
    model = overhead if overhead is not None else NullOverheadModel()
    return _sbr_bound(vendor, create_profile(vendor), resource_size, model)


def profile_sbr_bound(
    vendor: str,
    profile: VendorProfile,
    resource_size: int,
) -> SbrBound:
    """Worst-case SBR bound for ``vendor``'s exploited cases replayed
    against ``profile`` — the registry profile or a wrapped one standing
    in for it (the mitigation residual) — without framing overhead."""
    return _sbr_bound(vendor, profile, resource_size, NullOverheadModel())


def _sbr_bound(
    vendor: str,
    profile: VendorProfile,
    resource_size: int,
    model: OverheadModel,
) -> SbrBound:
    """Fold ``profile``'s fetch plan for ``vendor``'s exploited cases into
    the over/under-estimated bound ratio."""
    cases = profile_class(vendor).sbr_cases_at(resource_size)
    # The cases of one attack round reach one edge in order, so they
    # share one node's state (KeyCDN deletes on the second sighting).
    state = EdgeState()
    origin_upper = 0
    fetches = 0
    for case in cases:
        for payload, cap in _case_fetches(profile, case, resource_size, state):
            sent = (
                model.framed_size(payload + ORIGIN_HEADER_ALLOWANCE)
                + model.connection_setup_bytes()
            )
            if cap is not None:
                # Delivered bytes are capped at header block + payload cap.
                sent = min(sent, cap + ORIGIN_HEADER_ALLOWANCE)
            origin_upper += sent
            fetches += 1

    per_response = max(
        RESPONSE_WIRE_FLOOR,
        profile.client_header_block_target - PAD_HEADER_SLACK,
    )
    return SbrBound(
        vendor=vendor,
        resource_size=resource_size,
        range_cases=cases,
        origin_fetches=fetches,
        origin_bytes_upper=origin_upper,
        client_responses=len(cases),
        client_bytes_lower=len(cases) * per_response,
    )


def _case_fetches(
    profile: VendorProfile, range_value: str, resource_size: int, state: EdgeState
) -> List[_Fetch]:
    """Upper-bound the origin exchanges one exploited case costs under
    ``profile``.

    A slicing flow fetches the whole slices covering a closed range.
    Otherwise the decision table sets the first exchange: a lazily
    forwarded range costs the origin the requested bytes, an expanded
    range the expanded window, and a deleted Range header the full
    representation, cut at the profile's ``deletion_cut``.  A flow that
    refetches after a 206 adds the full representation for a single
    range, and one with a ``second_window`` adds that window.
    """
    spec = try_parse_range_header(range_value)
    if spec is None:
        return [(resource_size, None)]
    if profile.slice_size is not None and classify_spec(spec) is SpecShape.SINGLE_CLOSED:
        try:
            resolved = spec.resolve(resource_size)
        except RangeNotSatisfiableError:
            return [(0, None)]
        only = resolved[0][0]
        size = profile.slice_size
        count = only.end // size - only.start // size + 1
        return [(min(count * size, resource_size), None)]

    ctx = VendorContext(
        config=profile.effective_config(), resource_size_hint=resource_size, state=state
    )
    forwarded = profile.forward_decision(probe_request(range_value), spec, ctx).forwarded_range
    if forwarded is None:
        # Deletion: the origin ships the full representation.
        fetches = [(resource_size, profile.deletion_cut)]
    else:
        forwarded_spec = spec if forwarded == range_value else try_parse_range_header(forwarded)
        fetches = [(_lazy_payload(forwarded_spec, resource_size), None)]
    if profile.refetches_after_partial and not spec.is_multi:
        fetches.append((resource_size, None))
    window = profile.second_window_for(spec, resource_size)
    if window is not None:
        first, last = window
        fetches.append((min(resource_size - 1, last) - first + 1, None))
    return fetches


def _lazy_payload(spec: Optional[RangeSpecifier], resource_size: int) -> int:
    """Origin payload for a Range header forwarded as ``spec``: the
    resolved bytes plus multipart framing when more than one part, or
    the full representation when the header does not parse."""
    if spec is None:
        return resource_size
    try:
        resolved = spec.resolve(resource_size)
    except RangeNotSatisfiableError:
        # The origin answers 416: headers only.
        return 0
    payload = sum(r.length * count for r, count in resolved)
    parts = sum(count for _, count in resolved)
    if parts > 1:
        payload += parts * MULTIPART_PART_ALLOWANCE + MULTIPART_CLOSER_ALLOWANCE
    return payload


# ---------------------------------------------------------------------------
# SBR under faults + retries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FaultedSbrBound:
    """Retry-aware worst case: the clean bound × the attempt budget.

    Under a fault plan the CDN may re-ship every back-to-origin fetch up
    to ``max_attempts`` times, so the victim-side numerator scales by the
    attempt budget.  The attacker-side denominator drops to the absolute
    response-wire floor: when the budget exhausts, the client gets a
    relayed (unpadded) error instead of the padded vendor response.

    Scope: sound for fault plans whose delivery faults target the
    ``cdn-origin`` segment (the default plan).  A plan injecting resets
    on the attacker's own ``client-cdn`` segment shrinks the denominator
    arbitrarily and no static bound holds.
    """

    base: SbrBound
    max_attempts: int

    @property
    def vendor(self) -> str:
        return self.base.vendor

    @property
    def resource_size(self) -> int:
        return self.base.resource_size

    @property
    def origin_bytes_upper(self) -> int:
        """Per-round victim bytes: every fetch re-shipped every attempt."""
        return self.base.origin_bytes_upper * self.max_attempts

    @property
    def client_bytes_lower(self) -> int:
        """Per-round attacker floor: one bare-wire response per case."""
        return self.base.client_responses * RESPONSE_WIRE_FLOOR

    @property
    def factor(self) -> float:
        """Upper bound on the simulated faulted amplification factor."""
        if self.client_bytes_lower <= 0:
            return 0.0
        return self.origin_bytes_upper / self.client_bytes_lower


def faulted_sbr_bound(
    vendor: str,
    resource_size: int,
    policy: Optional[object] = None,
) -> FaultedSbrBound:
    """Retry-aware worst-case SBR amplification for one vendor × size.

    ``policy`` defaults to the vendor's stock
    :class:`~repro.faults.retry.RetryPolicy` — the one the simulation
    engages whenever a fault injector is installed — so
    ``faulted_sbr_bound(v, s).factor`` upper-bounds
    ``measure_sbr_under_faults(v, s).amplification`` for any seed of the
    default plan.
    """
    from repro.faults.retry import RetryPolicy, retry_policy_for

    if policy is None:
        policy = retry_policy_for(vendor)
    if not isinstance(policy, RetryPolicy):
        raise ConfigurationError(
            f"policy must be a RetryPolicy, got {type(policy).__name__}"
        )
    return FaultedSbrBound(
        base=sbr_bound(vendor, resource_size),
        max_attempts=policy.max_attempts,
    )


# ---------------------------------------------------------------------------
# OBR
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ObrBound:
    """Static worst-case bound for one OBR cascade cell."""

    fcdn: str
    bcdn: str
    resource_size: int
    #: Largest ``n`` that survives both CDNs' header limits (static
    #: search; 0 when the cascade is not exploitable).
    max_n: int
    #: Upper bound on the per-part multipart framing overhead.
    part_overhead_upper: int
    #: Upper bound on victim-side (fcdn-bcdn) response bytes.
    victim_bytes_upper: int
    #: Lower bound on attacker-side (bcdn-origin) response bytes.
    attacker_bytes_lower: int

    @property
    def factor(self) -> float:
        """Upper bound on the simulated amplification factor."""
        if self.attacker_bytes_lower <= 0:
            return 0.0
        return self.victim_bytes_upper / self.attacker_bytes_lower


#: The overlap count of a :class:`FrontPlan`'s real requests.
PLAN_COUNT = 2


@dataclass(frozen=True)
class FrontPlan:
    """What every max-n probe reads off one front end.

    Built once per ``(fcdn, fcdn_profile)`` — plus the resource size
    when the front's decision read it (``size_read``; only Huawei's
    does) — from one front profile and the real ``n = 2`` client request
    (:func:`~repro.analysis.classify.exploited_request`), whose sizes
    are ``head``.  ``upstream`` is the request the front sends on when
    its decision table forwards the exploited shape verbatim, ``None``
    when it rewrites it.  Every modelled decision table reads the Range
    shape and its leading spec, never the range count, so the ``n = 2``
    decision is the decision at every ``n``; a probe at ``n`` grows both
    heads by the Range value's extra bytes
    (:meth:`~repro.cdn.limits.RequestHead.grown`).
    """

    fcdn: str
    limits: HeaderLimits
    head: RequestHead
    upstream: Optional[HttpRequest]
    upstream_head: Optional[RequestHead]
    leading: Optional[str]
    size_read: bool

    def extra_bytes(self, overlap_count: int) -> int:
        """How much longer the Range value is at ``overlap_count`` than
        in the plan's requests."""
        return obr_value_size(overlap_count, self.leading) - obr_value_size(
            PLAN_COUNT, self.leading
        )


#: Front plans, by ``(fcdn, fcdn_profile)`` plus ``resource_size`` when
#: the front's decision read the size.  A cold audit builds 8; every
#: vendor under every mitigation is 91 fronts.
_FRONT_PLANS = Memo(maxsize=128, name="obr_front_plan")


def _front_plan(
    fcdn: str, resource_size: int, fcdn_profile: Optional[VendorProfile]
) -> FrontPlan:
    size_free = (fcdn, fcdn_profile)
    sized = (*size_free, resource_size)

    def build() -> Tuple[FrontPlan, Tuple[object, ...]]:
        front = fcdn_profile or create_profile(fcdn)
        request = exploited_request(fcdn, PLAN_COUNT)
        reads = ContextReads()
        upstream = forwarded_verbatim(fcdn, front, request, resource_size, reads)
        plan = FrontPlan(
            fcdn=fcdn,
            limits=front.limits,
            head=RequestHead.of(request),
            upstream=upstream,
            upstream_head=RequestHead.of(upstream) if upstream is not None else None,
            leading=profile_class(fcdn).obr_leading_spec,
            size_read=reads.size,
        )
        return plan, sized if plan.size_read else size_free

    plan: FrontPlan = _FRONT_PLANS.get_or_compute_under((size_free, sized), build)
    return plan


def declared_max_n(
    fcdn: str,
    bcdn: str,
    resource_size: int,
    fcdn_profile: Optional[VendorProfile] = None,
    bcdn_profile: Optional[VendorProfile] = None,
) -> Optional[int]:
    """The largest ``n`` the cascade's declared header limits admit.

    Read off the front's :class:`FrontPlan`: the minimum of the front's
    :meth:`~repro.cdn.limits.HeaderLimits.range_cap` on the ``n = 2``
    client request and — when the front forwards the exploited header
    verbatim — the back's ``range_cap`` on the upstream request and its
    reply-part cap.  The RFC 7233 guard of a mitigated profile declares
    its overlap cap (``max_overlapping_ranges``), so guarded cascades
    are solved too.  0 when the front rewrites the header; ``None`` when
    no declared limit binds (only opaque predicates, or none).  The
    searches take this as their first guess and certify it: the static
    one with size checks (:func:`static_max_n`), the wire one with two
    real probes.  ``fcdn_profile`` / ``bcdn_profile`` substitute wrapped
    (mitigated) profiles.
    """
    plan = _front_plan(fcdn, resource_size, fcdn_profile)
    return _declared(plan, bcdn_profile or create_profile(bcdn))


def _declared(plan: FrontPlan, back: VendorProfile) -> Optional[int]:
    if plan.upstream_head is None:
        return 0
    step = plan.extra_bytes(PLAN_COUNT + 1)
    caps = [
        plan.limits.range_cap(plan.head, PLAN_COUNT, step),
        back.limits.range_cap(plan.upstream_head, PLAN_COUNT, step),
        back.reply_max_parts,
    ]
    declared = [cap for cap in caps if cap is not None]
    return min(declared) if declared else None


def largest_admitted(
    admits: Callable[[int], bool],
    lower: int,
    upper: int,
    guess: Optional[int] = None,
) -> int:
    """The largest ``n`` in ``[lower, upper]`` that ``admits``, or 0.

    ``admits`` must be monotone (true up to the boundary, false past
    it).  ``guess`` — the solved cap (:func:`declared_max_n`), clamped
    into ``[lower, upper]``; ``upper`` when absent — is certified with
    two probes: it is the answer when ``admits(guess)`` holds and
    ``admits(guess + 1)`` does not.  When an undeclared guard binds
    below the guess, the search gallops up from ``lower`` (``lower``,
    ``2·lower``, …) and bisects, so small answers cost only small
    probes; when the guess proves too low it bisects above it.
    """
    guess = upper if guess is None else min(max(guess, lower), upper)
    if admits(guess):
        if guess == upper or not admits(guess + 1):
            return guess
        if admits(upper):
            return upper
        low, high = guess + 1, upper  # admits(low), not admits(high)
    else:
        if guess == lower or not admits(lower):
            return 0
        low, high = lower, guess
        probe = max(2 * low, low + 1)
        while probe < high:
            if not admits(probe):
                high = probe
                break
            low, probe = probe, 2 * probe
    while high - low > 1:
        middle = (low + high) // 2
        if admits(middle):
            low = middle
        else:
            high = middle
    return low


#: :func:`static_max_n` searches, by ``(fcdn, bcdn, lower, upper,
#: fcdn_profile, bcdn_profile)`` plus ``resource_size`` when a probe
#: read the size.
_MAX_N_MEMO = Memo(maxsize=1024, name="static_max_n")


def static_max_n(
    fcdn: str,
    bcdn: str,
    resource_size: int = 1024,
    lower: int = 2,
    upper: int = MAX_OVERLAPS,
    fcdn_profile: Optional[VendorProfile] = None,
    bcdn_profile: Optional[VendorProfile] = None,
) -> int:
    """The largest forwarded-unchanged ``n``, from header sizes.

    Runs :meth:`~repro.core.obr.ObrAttack.find_max_n`'s search without
    any deployment.  The cap is solved from the cascade's declared
    limits (:func:`declared_max_n`) and certified by size checks at
    ``n`` and ``n + 1`` (:func:`_sized_probe`) on the front's
    :class:`FrontPlan` and the back end's shared profile.
    ``n`` survives when the FCDN's ingress limits admit the client
    request, the FCDN's decision table forwards the Range header
    verbatim, the BCDN's ingress limits admit the forwarded request, and
    the BCDN's reply-part cap admits ``n`` parts.  These are exactly the
    rejection points of the simulated probe, so the two searches agree
    on every cascade.  Byte and range-count limits are compared against
    the requests' sizes at ``n``; an opaque ``custom`` predicate (the
    RFC 7233 guard) is asked on a real message built at ``n``.

    ``fcdn_profile`` / ``bcdn_profile`` substitute wrapped (mitigated)
    profiles for the named registry vendors on either side.

    The search and its plans are memoized, keyed by the profile objects
    (shared instances, so equal profiles are one key).  Only a
    front end's decision table can read the resource size (Huawei's
    10 MB switch), and each decision's
    :class:`~repro.cdn.vendors.base.VendorContext` records whether it
    did.  A search none of whose decisions read it is stored without
    the size and answers every size: the search is deterministic, so at
    any other size it would take the same probes to the same answer.
    """
    if fcdn == bcdn:
        raise ConfigurationError(
            "a CDN is not cascaded with itself (paper Table V excludes it)"
        )
    if lower < PLAN_COUNT:
        raise ConfigurationError(
            f"an overlapping multi-range has at least {PLAN_COUNT} ranges, got lower={lower}"
        )

    size_free = (fcdn, bcdn, lower, upper, fcdn_profile, bcdn_profile)
    sized = (*size_free, resource_size)

    def search() -> Tuple[int, Tuple[object, ...]]:
        plan = _front_plan(fcdn, resource_size, fcdn_profile)
        back = bcdn_profile or create_profile(bcdn)
        max_n = largest_admitted(
            lambda n: _sized_probe(plan, back, n), lower, upper, _declared(plan, back)
        )
        return max_n, sized if plan.size_read else size_free

    found: int = _MAX_N_MEMO.get_or_compute_under((size_free, sized), search)
    return found


def _sized_probe(plan: FrontPlan, back: VendorProfile, overlap_count: int) -> bool:
    """:func:`_static_probe` on sizes: would a request with
    ``overlap_count`` ranges survive end-to-end?"""
    extra = plan.extra_bytes(overlap_count)
    front_guard = plan.limits.opaque_custom
    if not plan.limits.fits(plan.head.grown(extra), overlap_count) or (
        front_guard is not None and front_guard(exploited_request(plan.fcdn, overlap_count))
    ):
        return False
    if plan.upstream_head is None:
        return False
    back_guard = back.limits.opaque_custom
    if not back.limits.fits(plan.upstream_head.grown(extra), overlap_count) or (
        back_guard is not None and back_guard(_upstream_at(plan, overlap_count))
    ):
        return False
    max_parts = back.reply_max_parts
    return max_parts is None or overlap_count <= max_parts


def _upstream_at(plan: FrontPlan, overlap_count: int) -> HttpRequest:
    """The front's verbatim upstream request with ``overlap_count`` ranges."""
    assert plan.upstream is not None
    upstream = plan.upstream.copy()
    upstream.headers.set(
        "Range", overlapping_open_ranges_value(overlap_count, leading=plan.leading)
    )
    return upstream


def _static_probe(
    fcdn: str,
    bcdn: str,
    overlap_count: int,
    resource_size: int,
    fcdn_profile: Optional[VendorProfile] = None,
    bcdn_profile: Optional[VendorProfile] = None,
) -> bool:
    """Would a request with ``overlap_count`` ranges survive end-to-end?

    The message-building form of :func:`_sized_probe`: the real client request at ``overlap_count`` and the one the front
    forwards, each passed through :meth:`HeaderLimits.check`.  No
    search runs it; the tests keep it as the oracle the size form must
    equal."""
    request = exploited_request(fcdn, overlap_count)
    front = fcdn_profile or create_profile(fcdn)
    try:
        front.limits.check(request)
    except RequestRejectedError:
        return False
    upstream = forwarded_verbatim(fcdn, front, request, resource_size)
    if upstream is None:
        return False

    back = bcdn_profile or create_profile(bcdn)
    try:
        back.limits.check(upstream)
    except RequestRejectedError:
        return False
    max_parts = back.reply_max_parts
    if max_parts is not None and overlap_count > max_parts:
        return False
    return True


def obr_bound(
    fcdn: str,
    bcdn: str,
    resource_size: int = 1024,
    overlap_count: Optional[int] = None,
    overhead: Optional[OverheadModel] = None,
    fcdn_profile: Optional[VendorProfile] = None,
    bcdn_profile: Optional[VendorProfile] = None,
) -> ObrBound:
    """Closed-form worst-case OBR amplification for one cascade.

    ``overlap_count=None`` runs the static max-n search first, mirroring
    :meth:`~repro.core.obr.ObrAttack.run`.  The default overhead model is
    the same capture-like TCP framing the simulated attack uses.

    ``fcdn_profile`` / ``bcdn_profile`` substitute wrapped (mitigated)
    profiles.  A coalescing back end (``with_overlap_rejection``,
    ``with_slicing``) merges the attack's pairwise-overlapping ranges
    into a single part, so the part count drops to one.
    """
    model = overhead if overhead is not None else TcpOverheadModel()
    n = (
        overlap_count
        if overlap_count is not None
        else static_max_n(
            fcdn,
            bcdn,
            resource_size=resource_size,
            fcdn_profile=fcdn_profile,
            bcdn_profile=bcdn_profile,
        )
    )
    if n < 1:
        raise ConfigurationError(
            f"{fcdn} -> {bcdn} admits no overlapping ranges"
        )

    back = bcdn_profile or create_profile(bcdn)
    boundary = back.multipart_boundary
    part_overhead = _part_overhead_upper(boundary, OBR_CONTENT_TYPE, resource_size)
    closer = len(boundary) + 6  # "--" + boundary + "--" + CRLF
    # The exploited shapes' ranges all pairwise overlap, so any reply
    # behavior other than HONOR collapses them into one part.
    parts = n if back.reply_behavior is MultiRangeReplyBehavior.HONOR else 1
    body_upper = parts * (resource_size + part_overhead) + closer
    header_upper = max(back.client_header_block_target, 0) + CDN_HEADER_ALLOWANCE

    victim_upper = (
        model.framed_size(header_upper + body_upper) + model.connection_setup_bytes()
    )
    # The BCDN fetches the full representation once; the origin response
    # carries at least the resource body.  A back end with a
    # ``deletion_cut`` (Azure) cuts that fetch once its header block plus
    # the cut have crossed the wire (the delivery cap the SBR plan
    # mirrors too), so at least the cut does.
    attacker_lower = model.framed_size(resource_size) + model.connection_setup_bytes()
    if back.deletion_cut is not None:
        attacker_lower = min(attacker_lower, back.deletion_cut)

    return ObrBound(
        fcdn=fcdn,
        bcdn=bcdn,
        resource_size=resource_size,
        max_n=n,
        part_overhead_upper=part_overhead,
        victim_bytes_upper=victim_upper,
        attacker_bytes_lower=attacker_lower,
    )


def _part_overhead_upper(boundary: str, content_type: str, resource_size: int) -> int:
    """Exact upper bound on one multipart part's framing bytes
    (:meth:`~repro.http.multipart.MultipartByteranges.part_overhead`)."""
    digits = len(str(resource_size))
    delimiter = len(boundary) + 4  # "--" + boundary + CRLF
    ct_line = len("Content-Type: ") + len(content_type) + 2
    # "Content-Range: bytes <start>-<end>/<complete>" — every number has
    # at most ``digits`` digits.
    cr_line = len("Content-Range: bytes ") + 3 * digits + 2 + 2
    blank = 2
    trailing = 2  # CRLF after the part payload
    return delimiter + ct_line + cr_line + blank + trailing


# ---------------------------------------------------------------------------
# CCFC
# ---------------------------------------------------------------------------

#: Content codings the attacker's origin pre-compresses, ordered by how
#: hard they shrink (br beats gzip on the attack payload).
ATTACK_ENCODINGS: Tuple[str, ...] = ("br", "gzip")

#: The Accept-Encoding the CCFC attacker declares: identity-only, so a
#: rewriting CDN that fetched br/gzip must inflate at the edge.
CLIENT_ACCEPT_ENCODING = IDENTITY

#: Where the CCFC attacker's origin hosts the payload (requested under
#: :data:`~repro.analysis.classify.TARGET_HOST`).
CCFC_TARGET_PATH = "/target.bin"


def default_attack_encodings(profile: VendorProfile, resource_size: int) -> Dict[str, int]:
    """The pre-compressed variants the attacker's origin hosts, sized by
    the profile's per-format compression ratios."""
    return {
        coding: profile.compressed_size(coding, resource_size)
        for coding in ATTACK_ENCODINGS
    }


def negotiated_encoding(
    profile: VendorProfile, encodings: Mapping[str, int]
) -> Optional[str]:
    """The coding the origin picks for one attack request, or ``None``.

    Mirrors the origin's smallest-acceptable-variant negotiation as seen
    through the profile's upstream ``Accept-Encoding`` rewrite: a
    stripped header (``None`` upstream) or one that only accepts
    identity yields no non-identity variant.
    """
    upstream = profile.upstream_accept_encoding(CLIENT_ACCEPT_ENCODING)
    if upstream is None:
        return None
    candidates = [
        (size, coding)
        for coding, size in encodings.items()
        if coding.lower() != IDENTITY and accepts_encoding(upstream, coding)
    ]
    if not candidates:
        return None
    return min(candidates)[1]


@dataclass(frozen=True)
class CcfcResult:
    """Outcome of one CCFC measurement."""

    vendor: str
    resource_size: int
    rounds: int
    #: Coding the origin served (``None`` when negotiation fell back to
    #: the identity representation — the safe vendors).
    encoding: Optional[str]
    #: Response traffic the CDN pushed to the client on client-cdn (bytes).
    client_traffic: int
    #: Response traffic the origin pushed on cdn-origin (bytes).
    origin_traffic: int
    #: HTTP statuses of the client-side responses.
    statuses: Tuple[int, ...]
    report: AmplificationReport

    @property
    def amplification(self) -> float:
        return self.report.factor


def ccfc_mirror(
    vendor: str,
    resource_size: int,
    overhead: Optional[OverheadModel] = None,
    profile: Optional[VendorProfile] = None,
) -> CcfcResult:
    """Closed-form replay of one round of
    :meth:`~repro.core.ccfc.CcfcAttack.run` without a deployment.

    Every byte-defining step goes through the same code the live
    pipeline runs — the profile's ``fetch`` flow against a real origin,
    :func:`~repro.cdn.vendors.base.convert_encoded_response`, and
    :func:`~repro.cdn.vendors.base.finalize_client_response` — but
    bodies stay synthetic and no ledger objects are built, so the cost
    is message-header work regardless of resource size.
    """
    profile = profile or create_profile(vendor)
    config = profile.effective_config()
    model = overhead if overhead is not None else NullOverheadModel()
    encodings = default_attack_encodings(profile, resource_size)
    origin = OriginServer()
    resource = origin.add_resource(
        Resource(path=CCFC_TARGET_PATH, body=resource_size, encodings=encodings)
    )
    setup = model.connection_setup_bytes()

    upstream_connections = 0
    upstream_request_bytes = 0
    upstream_sent = 0
    upstream_delivered = 0

    def exchange(
        upstream_request: HttpRequest,
        payload_cap: Optional[int] = None,
        note: str = "",
    ) -> HttpResponse:
        # One fresh upstream connection per exchange, accounted the
        # way Connection.exchange + CdnNode._exchange_once do.
        nonlocal upstream_connections, upstream_request_bytes
        nonlocal upstream_sent, upstream_delivered
        response = origin.handle(upstream_request)
        upstream_connections += 1
        upstream_request_bytes += model.framed_size(upstream_request.wire_size())
        sent = model.framed_size(response.wire_size()) + setup
        if payload_cap is None:
            delivered = sent
        else:
            cap = response.header_block_size() + max(0, payload_cap)
            delivered = min(sent, max(0, cap))
        upstream_sent += sent
        upstream_delivered += delivered
        if delivered < sent:
            received = response.copy()
            received.body = response.body.slice(
                0, max(0, delivered - response.header_block_size())
            )
            return received
        return response

    # The attack request, built exactly like ``Client.get`` does.
    headers = Headers([("Host", TARGET_HOST)])
    headers.add("Accept-Encoding", CLIENT_ACCEPT_ENCODING)
    request = HttpRequest(
        method="GET", target=CacheBuster().bust(CCFC_TARGET_PATH), headers=headers
    )
    ctx = VendorContext(config=config, resource_size_hint=resource.size)
    result = profile.fetch(request, None, ctx, exchange)
    if result.passthrough is None:
        raise ConfigurationError(
            "CCFC mirror models the lazy passthrough fetch flow only; "
            f"profile {profile.name!r} returned a content window"
        )
    passthrough = convert_encoded_response(
        profile,
        result.passthrough,
        resource.size,
        request.headers.get("Accept-Encoding"),
    )
    if int(passthrough.status) >= 300:
        response = passthrough.copy()
        response.headers.set("Server", profile.server_header)
    else:
        response = finalize_client_response(profile, passthrough.copy())
    client_sent = model.framed_size(response.wire_size()) + setup

    segments: Dict[str, SegmentStats] = {
        CLIENT_CDN: SegmentStats(
            segment=CLIENT_CDN,
            connection_count=1,
            exchange_count=1,
            request_bytes=model.framed_size(request.wire_size()),
            response_bytes_sent=client_sent,
            response_bytes_delivered=client_sent,
        )
    }
    if upstream_connections:
        segments[CDN_ORIGIN] = SegmentStats(
            segment=CDN_ORIGIN,
            connection_count=upstream_connections,
            exchange_count=upstream_connections,
            request_bytes=upstream_request_bytes,
            response_bytes_sent=upstream_sent,
            response_bytes_delivered=upstream_delivered,
        )
    report = AmplificationReport(
        attacker_bytes=upstream_delivered if upstream_connections else 0,
        victim_bytes=client_sent,
        attacker_segment=CDN_ORIGIN,
        victim_segment=CLIENT_CDN,
        segments=segments,
    )
    return CcfcResult(
        vendor=vendor,
        resource_size=resource_size,
        rounds=1,
        encoding=negotiated_encoding(profile, encodings),
        client_traffic=report.victim_bytes,
        origin_traffic=report.attacker_bytes,
        statuses=(response.status,),
        report=report,
    )


@dataclass(frozen=True)
class CcfcBound:
    """Static worst-case bound for one CCFC cell (vendor × size).

    Unlike the SBR/OBR bounds, which over/under-estimate independently,
    the CCFC numbers are **exact**: they come from :func:`ccfc_mirror`,
    which replays the byte-defining code paths (the profile's fetch
    flow, a real origin, the edge's conversion/finalize helpers) at O(1)
    cost in the resource size.  ``bound == simulated factor`` therefore
    holds with equality on every cell, pinned by the cross-check tests.
    """

    vendor: str
    resource_size: int
    #: Coding the origin serves under the vendor's rewrite (``None`` for
    #: the safe vendors — identity fallback, factor ~1).
    encoding: Optional[str]
    #: Exact victim-side (client-cdn) response bytes.
    victim_bytes_upper: int
    #: Exact attacker-side (cdn-origin) response bytes.
    attacker_bytes_lower: int

    @property
    def factor(self) -> float:
        """The exact amplification factor the simulation reports."""
        if self.attacker_bytes_lower <= 0:
            return 0.0
        return self.victim_bytes_upper / self.attacker_bytes_lower


def profile_ccfc_bound(
    vendor: str,
    profile: Optional[VendorProfile],
    resource_size: int,
    overhead: Optional[OverheadModel] = None,
) -> CcfcBound:
    """Worst-case CCFC bound, optionally against a substituted profile.

    ``profile=None`` bounds the registry vendor; a wrapped/mitigated
    profile is bounded under the same attack request (the
    recommendation engine's residual).
    """
    result = ccfc_mirror(vendor, resource_size, overhead, profile)
    return CcfcBound(
        vendor=vendor,
        resource_size=resource_size,
        encoding=result.encoding,
        victim_bytes_upper=result.client_traffic,
        attacker_bytes_lower=result.origin_traffic,
    )


def ccfc_bound(
    vendor: str,
    resource_size: int,
    overhead: Optional[OverheadModel] = None,
) -> CcfcBound:
    """Closed-form CCFC amplification for one registry vendor × size."""
    return profile_ccfc_bound(vendor, None, resource_size, overhead=overhead)
