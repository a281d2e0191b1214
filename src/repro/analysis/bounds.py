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
subtracted), so the ratio can only be pessimistic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.cdn.multirange import MultiRangeReplyBehavior
from repro.cdn.vendors import create_profile
from repro.cdn.vendors.azure import DEFAULT_ABORT_SLOP, EIGHT_MB, WINDOW_LAST
from repro.cdn.vendors.base import VendorContext, VendorProfile
from repro.cdn.vendors.cloudfront import MULTI_RANGE_WINDOW_CAP
from repro.core.obr import (
    declared_max_n,
    exploited_request,
    forwarded_verbatim,
    largest_admitted,
)
from repro.errors import (
    ConfigurationError,
    RangeNotSatisfiableError,
    RequestRejectedError,
)
from repro.http.message import HttpRequest
from repro.http.ranges import RangeSpecifier, try_parse_range_header
from repro.netsim.overhead import NullOverheadModel, OverheadModel, TcpOverheadModel
from repro.obs.memo import Memo

#: Builds a fresh profile instance (profiles are stateful).  Bound
#: functions accept one so the same closed forms can be re-run under a
#: wrapped/mitigated profile (``repro.analysis.recommend``).
ProfileFactory = Callable[[], VendorProfile]

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


@dataclass(frozen=True)
class _Fetch:
    """One back-to-origin exchange in a vendor's worst-case fetch plan."""

    #: Upper bound on the response *payload* bytes the origin sends.
    payload_upper: int
    #: Delivery cap the node imposes (Azure's connection cut), if any.
    payload_cap: Optional[int] = None


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
    under the vendor's fetch plan (including multi-connection flows and
    Azure's delivery cut), the denominator lower-bounds the per-round
    ``client-cdn`` response traffic from the calibrated header-padding
    targets.
    """
    from repro.core.sbr import exploited_range_cases

    model = overhead if overhead is not None else NullOverheadModel()
    cases = exploited_range_cases(vendor, resource_size)
    fetches = _fetch_plan(vendor, resource_size)
    header_target = type(create_profile(vendor)).client_header_block_target
    return _assemble_sbr_bound(
        vendor, resource_size, cases, fetches, header_target, model
    )


def _assemble_sbr_bound(
    vendor: str,
    resource_size: int,
    cases: List[str],
    fetches: List[_Fetch],
    header_block_target: int,
    model: OverheadModel,
) -> SbrBound:
    """Fold a fetch plan into the over/under-estimated bound ratio."""
    origin_upper = 0
    for fetch in fetches:
        sent = (
            model.framed_size(fetch.payload_upper + ORIGIN_HEADER_ALLOWANCE)
            + model.connection_setup_bytes()
        )
        if fetch.payload_cap is not None:
            # Delivered bytes are capped at header block + payload cap.
            sent = min(sent, fetch.payload_cap + ORIGIN_HEADER_ALLOWANCE)
        origin_upper += sent

    per_response = max(
        RESPONSE_WIRE_FLOOR,
        header_block_target - PAD_HEADER_SLACK,
    )
    client_lower = len(cases) * per_response

    return SbrBound(
        vendor=vendor,
        resource_size=resource_size,
        range_cases=tuple(cases),
        origin_fetches=len(fetches),
        origin_bytes_upper=origin_upper,
        client_responses=len(cases),
        client_bytes_lower=client_lower,
    )


def profile_sbr_bound(
    vendor: str,
    profile_factory: ProfileFactory,
    resource_size: int,
    overhead: Optional[OverheadModel] = None,
) -> SbrBound:
    """Worst-case SBR bound for ``vendor``'s exploited cases replayed
    against a *substituted* profile (the mitigation residual).

    The fetch plan is derived from the substituted profile's own
    ``forward_decision`` table: a lazily forwarded range costs the origin
    only the requested bytes, an expanded range costs the expanded
    window, and a deleted Range header costs the full representation.
    ``SlicingProfile`` fetch flows are bounded by their slice arithmetic.

    Soundness scope: profiles using the base single-connection fetch
    flow (every ``repro.defense.mitigations`` wrapper qualifies — the
    multi-connection vendor quirks are exactly what the mitigations
    remove).  Raw registry profiles with custom fetch flows (Azure,
    KeyCDN, StackPath) are *not* admissible here; use :func:`sbr_bound`.
    """
    from repro.core.sbr import exploited_range_cases

    model = overhead if overhead is not None else NullOverheadModel()
    cases = exploited_range_cases(vendor, resource_size)
    profile = profile_factory()
    # One decision per case on one instance, mirroring the request order
    # a single attack round replays against a single edge node.
    fetches = [_decision_fetch(profile, case, resource_size) for case in cases]
    return _assemble_sbr_bound(
        vendor,
        resource_size,
        cases,
        fetches,
        profile.client_header_block_target,
        model,
    )


def _decision_fetch(
    profile: VendorProfile, range_value: str, resource_size: int
) -> _Fetch:
    """Upper-bound one exploited case's origin payload under ``profile``."""
    from repro.cdn.vendors.base import SpecShape, classify_spec
    from repro.defense.mitigations import SlicingProfile

    spec = try_parse_range_header(range_value)
    if spec is None:
        return _Fetch(payload_upper=resource_size)

    if isinstance(profile, SlicingProfile):
        if classify_spec(spec) is SpecShape.SINGLE_CLOSED:
            try:
                resolved = spec.resolve(resource_size)
            except RangeNotSatisfiableError:
                return _Fetch(payload_upper=0)
            only = resolved[0]
            size = profile.slice_size
            count = only.end // size - only.start // size + 1
            return _Fetch(payload_upper=min(count * size, resource_size))
        # Open/suffix/multi shapes fall through to the lazy base flow.
        return _lazy_payload_fetch(spec, resource_size)

    request = HttpRequest(
        "GET",
        "/target.bin",
        headers=[("Host", "victim.example"), ("Range", range_value)],
    )
    ctx = VendorContext(
        config=profile.effective_config(), resource_size_hint=resource_size
    )
    decision = profile.forward_decision(request, spec, ctx)
    if decision.forwarded_range is None:
        # Deletion: the origin ships the full representation.
        return _Fetch(payload_upper=resource_size)
    forwarded = try_parse_range_header(decision.forwarded_range)
    if forwarded is None:
        return _Fetch(payload_upper=resource_size)
    return _lazy_payload_fetch(forwarded, resource_size)


def _lazy_payload_fetch(spec: RangeSpecifier, resource_size: int) -> _Fetch:
    """Origin payload for a Range header forwarded as ``spec``: the
    resolved bytes plus multipart framing when more than one part."""
    try:
        resolved = spec.resolve(resource_size)
    except RangeNotSatisfiableError:
        # The origin answers 416: headers only.
        return _Fetch(payload_upper=0)
    payload = sum(r.length for r in resolved)
    if len(resolved) > 1:
        payload += (
            len(resolved) * MULTIPART_PART_ALLOWANCE + MULTIPART_CLOSER_ALLOWANCE
        )
    return _Fetch(payload_upper=payload)


def _fetch_plan(vendor: str, resource_size: int) -> List[_Fetch]:
    """Worst-case back-to-origin exchanges for one exploited round.

    Derived from each profile's documented fetch flow (§V-A): most
    vendors make one full-representation fetch; KeyCDN's stateful flow
    and StackPath's 206-triggered refetch add a small lazy 206 first;
    Azure cuts past 8 MB and may open the expansion window; CloudFront
    never widens a multi-range past its 10 MB window cap.
    """
    if vendor == "keycdn" or vendor == "stackpath":
        # A lazy single-byte 206, then the full representation.
        return [_Fetch(payload_upper=1), _Fetch(payload_upper=resource_size)]
    if vendor == "azure":
        plan = [
            _Fetch(
                payload_upper=resource_size,
                payload_cap=EIGHT_MB + DEFAULT_ABORT_SLOP,
            )
        ]
        if resource_size > EIGHT_MB:
            # Second connection with Range: bytes=8388608-16777215.
            window = min(resource_size - 1, WINDOW_LAST) - EIGHT_MB + 1
            plan.append(_Fetch(payload_upper=max(0, window)))
        return plan
    if vendor == "cloudfront":
        return [_Fetch(payload_upper=min(resource_size, MULTI_RANGE_WINDOW_CAP))]
    return [_Fetch(payload_upper=resource_size)]


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
    overhead: Optional[OverheadModel] = None,
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
        base=sbr_bound(vendor, resource_size, overhead=overhead),
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


#: Registry-vendor :func:`static_max_n` searches, by argument tuple.
_MAX_N_MEMO = Memo(maxsize=1024, name="static_max_n")


def static_max_n(
    fcdn: str,
    bcdn: str,
    resource_size: int = 1024,
    resource_path: str = "/1KB.bin",
    host: str = "victim.example",
    lower: int = 2,
    upper: int = 32768,
    fcdn_profile: Optional[ProfileFactory] = None,
    bcdn_profile: Optional[ProfileFactory] = None,
) -> int:
    """The largest forwarded-unchanged ``n``, from pure limit checks.

    Runs :meth:`~repro.core.obr.ObrAttack.find_max_n`'s search without
    any deployment: the cap is solved from the cascade's declared limits
    (:func:`~repro.core.obr.declared_max_n`) and certified by
    :func:`_static_probe` at ``n`` and ``n + 1``.  A probe survives when
    the FCDN's ingress limits admit the client request, the FCDN's
    decision table forwards the Range header verbatim, the BCDN's ingress
    limits admit the forwarded request, and the BCDN's reply-part cap
    admits ``n`` parts.  These are exactly the rejection points of the
    simulated probe, so the two searches agree on every cascade.

    ``fcdn_profile`` / ``bcdn_profile`` substitute wrapped (mitigated)
    profiles for the named registry vendors on either side.
    """
    if fcdn == bcdn:
        raise ConfigurationError(
            "a CDN is not cascaded with itself (paper Table V excludes it)"
        )

    def admits(n: int) -> bool:
        return _static_probe(
            fcdn,
            bcdn,
            n,
            resource_size,
            resource_path,
            host,
            fcdn_profile=fcdn_profile,
            bcdn_profile=bcdn_profile,
        )

    def search() -> int:
        guess = declared_max_n(
            fcdn, bcdn, resource_size, resource_path, host, fcdn_profile, bcdn_profile
        )
        return largest_admitted(admits, lower, upper, guess)

    if fcdn_profile is None and bcdn_profile is None:
        # Registry-vendor searches are pure functions of scalar inputs;
        # the analyzer and the recommendation engine re-ask the same
        # cascades, so the search is worth caching.  Wrapped (mitigated)
        # profiles stay uncached — factories have no stable cache
        # identity.
        max_n: int = _MAX_N_MEMO.get_or_compute(
            (fcdn, bcdn, resource_size, resource_path, host, lower, upper), search
        )
        return max_n
    return search()


def _static_probe(
    fcdn: str,
    bcdn: str,
    overlap_count: int,
    resource_size: int,
    resource_path: str,
    host: str,
    fcdn_profile: Optional[ProfileFactory] = None,
    bcdn_profile: Optional[ProfileFactory] = None,
) -> bool:
    """Would a request with ``overlap_count`` ranges survive end-to-end?"""
    request = exploited_request(fcdn, overlap_count, resource_path, host)
    front = fcdn_profile() if fcdn_profile is not None else create_profile(fcdn)
    try:
        front.limits.check(request)
    except RequestRejectedError:
        return False
    upstream = forwarded_verbatim(fcdn, front, request, resource_size)
    if upstream is None:
        return False

    back = bcdn_profile() if bcdn_profile is not None else create_profile(bcdn)
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
    content_type: str = "application/octet-stream",
    overhead: Optional[OverheadModel] = None,
    fcdn_profile: Optional[ProfileFactory] = None,
    bcdn_profile: Optional[ProfileFactory] = None,
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

    back = bcdn_profile() if bcdn_profile is not None else create_profile(bcdn)
    boundary = back.multipart_boundary
    part_overhead = _part_overhead_upper(boundary, content_type, resource_size)
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
    # carries at least the resource body.
    attacker_lower = model.framed_size(resource_size) + model.connection_setup_bytes()

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


@dataclass(frozen=True)
class CcfcBound:
    """Static worst-case bound for one CCFC cell (vendor × size).

    Unlike the SBR/OBR bounds, which over/under-estimate independently,
    the CCFC numbers are **exact**: they come from the closed-form
    mirror in :meth:`repro.core.ccfc.CcfcAttack.mirror`, which replays
    the byte-defining code paths (the profile's fetch flow, a real
    origin, the node's conversion/finalize helpers) at O(1) cost in the
    resource size.  ``bound == simulated factor`` therefore holds with
    equality on every cell, pinned by the cross-check tests.
    """

    vendor: str
    resource_size: int
    rounds: int
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
    profile_factory: Optional[ProfileFactory],
    resource_size: int,
    rounds: int = 1,
    overhead: Optional[OverheadModel] = None,
) -> CcfcBound:
    """Worst-case CCFC bound, optionally against a substituted profile.

    ``profile_factory=None`` bounds the registry vendor;
    a factory bounds the wrapped/mitigated profile under the same
    attack request (the recommendation engine's residual).
    """
    from repro.core.ccfc import CcfcAttack

    result = CcfcAttack(
        vendor,
        resource_size=resource_size,
        overhead=overhead,
        profile_factory=profile_factory,
    ).mirror(rounds=rounds)
    return CcfcBound(
        vendor=vendor,
        resource_size=resource_size,
        rounds=rounds,
        encoding=result.encoding,
        victim_bytes_upper=result.client_traffic,
        attacker_bytes_lower=result.origin_traffic,
    )


def ccfc_bound(
    vendor: str,
    resource_size: int,
    rounds: int = 1,
    overhead: Optional[OverheadModel] = None,
) -> CcfcBound:
    """Closed-form CCFC amplification for one registry vendor × size."""
    return profile_ccfc_bound(
        vendor, None, resource_size, rounds=rounds, overhead=overhead
    )


__all__ = [
    "CDN_HEADER_ALLOWANCE",
    "MULTIPART_CLOSER_ALLOWANCE",
    "MULTIPART_PART_ALLOWANCE",
    "ORIGIN_HEADER_ALLOWANCE",
    "PAD_HEADER_SLACK",
    "RESPONSE_WIRE_FLOOR",
    "CcfcBound",
    "FaultedSbrBound",
    "ObrBound",
    "ProfileFactory",
    "SbrBound",
    "ccfc_bound",
    "faulted_sbr_bound",
    "obr_bound",
    "profile_ccfc_bound",
    "profile_sbr_bound",
    "sbr_bound",
    "static_max_n",
]
