"""Static vulnerability classification from vendor configuration.

Every answer here is derived by interrogating a vendor profile's *pure*
decision surface — :meth:`~repro.cdn.vendors.base.VendorProfile.forward_decision`,
the multi-range reply behavior, the second-request policy (asked twice
against one :class:`~repro.cdn.vendors.base.EdgeState`), and the
``refetches_after_partial`` flag.  This module is the only place
that reads those decisions without sending traffic (``repro matrix``
renders :func:`probe_decision` too).  No deployment is wired, no
connection is opened, no ledger records a byte: this is the "audit the
config, not the wire" pass the paper performs analytically in §IV before
measuring anything.

* SBR (§IV-B): a vendor is vulnerable when any single-range shape makes
  it *Delete* or *Expand* the Range header (Table I), when its second
  sighting of an identical request does (KeyCDN), or when its fetch flow
  pulls the full representation despite a lazy decision table
  (StackPath).
* OBR (§IV-C): a cascade is vulnerable when the front CDN, run with the
  configuration the attack declares for it (the profile's
  ``obr_front_config``), forwards an overlapping multi-range shape
  *unchanged* (Laziness, Table II) and the back CDN *honors* overlapping
  ranges with a multipart reply (Table III).

What the SBR and OBR attacks send (Tables IV and V) is declared by each
vendor's profile class (``sbr_cases``, ``obr_leading_spec``), so that the
wire attacks and the static bounds read the same facts; the OBR request
they build is assembled here.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

from repro.cdn.multirange import MultiRangeReplyBehavior
from repro.cdn.policy import ForwardPolicy
from repro.cdn.vendors import all_vendor_names, create_profile, profile_class
from repro.cdn.vendors.base import (
    ContextReads,
    EdgeState,
    EncodingPolicy,
    VendorConfig,
    VendorContext,
    VendorProfile,
)
from repro.http.grammar import overlapping_open_ranges_value
from repro.http.message import HttpRequest
from repro.http.ranges import try_parse_range_header
from repro.obs.memo import Memo

MB = 1 << 20

#: Single-range probe shapes (Range value templates), covering Table I's
#: three formats.  Size-dependent vendors (Azure, Huawei) flip policy
#: with the resource size, so every shape is probed per size regime.
SINGLE_RANGE_SHAPES: Tuple[str, ...] = ("bytes=0-0", "bytes=5-", "bytes=-1")

#: Overlapping multi-range probe shapes, covering Table II and the
#: exploited leading-spec variants of Table V (CDN77's suffix lead,
#: CDNsun's ``1-`` lead).
MULTI_RANGE_SHAPES: Tuple[str, ...] = (
    "bytes=0-,0-,0-",
    "bytes=-1024,0-,0-",
    "bytes=1-,0-,0-",
)

#: Size regimes :func:`classify_sbr` probes: below and above every size
#: threshold the profiles encode (Azure's 8 MB, Huawei's 10 MB).
DEFAULT_PROBE_SIZES: Tuple[int, ...] = (1 * MB, 25 * MB)


# ---------------------------------------------------------------------------
# What the attacks send
# ---------------------------------------------------------------------------

#: Largest attack intensity ``m`` (SBR requests per second) a command
#: line or scenario file may ask of the Fig 7 flood: its work grows with
#: m, and untrusted input must not buy unbounded work.
MAX_FLOOD_M = 1000

#: The largest overlap count ``n`` any entry point searches or accepts.
#: It sits above every modeled cascade's header-limit cap, and it keeps
#: an untrusted ``n`` from buying an unbounded Range header.
MAX_OVERLAPS = 32768

#: The Table V target: a 1 KB resource behind one Host.  The attacking
#: client aborts after ``CLIENT_ABORT_AFTER`` response bytes.
TARGET_PATH = "/1KB.bin"
TARGET_HOST = "victim.example"
CLIENT_ABORT_AFTER = 2048


def exploited_request(fcdn: str, overlap_count: int) -> HttpRequest:
    """The OBR attack request the client sends through ``fcdn``, led by
    its Table V leading spec."""
    range_value = overlapping_open_ranges_value(
        overlap_count, leading=create_profile(fcdn).obr_leading_spec
    )
    return HttpRequest(
        "GET", TARGET_PATH, headers=[("Host", TARGET_HOST), ("Range", range_value)]
    )


def forwarded_verbatim(
    fcdn: str,
    front: VendorProfile,
    request: HttpRequest,
    resource_size: int,
    reads: Optional[ContextReads] = None,
) -> Optional[HttpRequest]:
    """The request ``front`` sends upstream when its decision table
    forwards the Range header unchanged (Laziness); ``None`` otherwise.
    ``reads`` notes whether the decision read the resource size."""
    range_value = request.headers.get("Range")
    config = create_profile(fcdn).obr_front_config
    ctx = VendorContext(
        config=config if config is not None else front.effective_config(),
        resource_size_hint=resource_size,
    )
    decision = front.forward_decision(request, try_parse_range_header(range_value), ctx)
    if reads is not None and ctx.size_read:
        reads.size = True
    if decision.forwarded_range != range_value:
        return None
    return front.build_upstream_request(request, decision)


@dataclass(frozen=True)
class ProbeDecision:
    """One vendor's forwarding decision for one probed Range shape."""

    range_value: str
    resource_size: int
    policy: ForwardPolicy
    forwarded_range: Optional[str]

    @property
    def amplifying(self) -> bool:
        """Deletion/Expansion — the SBR-exploitable policies."""
        return self.policy in (ForwardPolicy.DELETION, ForwardPolicy.EXPANSION)

    @property
    def lazy_unchanged(self) -> bool:
        """Forwarded verbatim — the OBR front-end requirement."""
        return (
            self.policy is ForwardPolicy.LAZINESS
            and self.forwarded_range == self.range_value
        )


def probe_decision(
    vendor: str,
    range_value: str,
    resource_size: int,
    config: Optional[VendorConfig] = None,
    reads: Optional[ContextReads] = None,
) -> ProbeDecision:
    """Ask ``vendor``'s profile for its first-sighting forwarding
    decision, as a fresh node would; ``reads`` notes whether the
    decision read the resource size."""
    return _ask(create_profile(vendor), range_value, resource_size, config, reads)


def _build_probe_request(range_value: str) -> HttpRequest:
    return HttpRequest(
        "GET",
        "/probe.bin",
        headers=[("Host", TARGET_HOST), ("Range", range_value)],
    )


#: One shared request per Range value the static layer asks decision
#: tables about: the classifiers' probe shapes and every vendor's
#: exploited SBR cases in both size regimes.  A forwarding decision only
#: reads its request (pinned by ``tests/analysis/test_static_budget.py``),
#: so every ask of one value can hand the same request.
_PROBE_REQUESTS = {
    value: _build_probe_request(value)
    for value in (
        *SINGLE_RANGE_SHAPES,
        *MULTI_RANGE_SHAPES,
        *(
            case
            for vendor in all_vendor_names()
            for size in DEFAULT_PROBE_SIZES
            for case in profile_class(vendor).sbr_cases_at(size)
        ),
    )
}


def probe_request(range_value: str) -> HttpRequest:
    """A request for a decision table to read: the shared one for a
    value the static layer always asks about, a fresh one otherwise."""
    request = _PROBE_REQUESTS.get(range_value)
    return request if request is not None else _build_probe_request(range_value)


def _ask(
    profile: VendorProfile,
    range_value: str,
    resource_size: int,
    config: Optional[VendorConfig],
    reads: Optional[ContextReads] = None,
    state: Optional[EdgeState] = None,
) -> ProbeDecision:
    ctx = VendorContext(
        config=config if config is not None else profile.effective_config(),
        resource_size_hint=resource_size,
        state=state,
    )
    decision = profile.forward_decision(
        probe_request(range_value), try_parse_range_header(range_value), ctx
    )
    if reads is not None and ctx.size_read:
        reads.size = True
    return ProbeDecision(
        range_value=range_value,
        resource_size=resource_size,
        policy=decision.policy,
        forwarded_range=decision.forwarded_range,
    )


@dataclass(frozen=True)
class SbrClassification:
    """Whether (and why) one vendor is SBR-vulnerable."""

    vendor: str
    display_name: str
    #: Probes whose first-sighting decision already amplifies.
    amplifying_probes: Tuple[ProbeDecision, ...]
    #: Probes that amplify only on the second identical request.
    stateful_probes: Tuple[ProbeDecision, ...]
    #: StackPath-style amplification hidden in the fetch flow.
    fetch_flow_amplifies: bool

    @property
    def vulnerable(self) -> bool:
        return bool(
            self.amplifying_probes or self.stateful_probes or self.fetch_flow_amplifies
        )

    @property
    def mechanism(self) -> str:
        """The dominant exploitation mechanism, for the findings report."""
        if any(p.policy is ForwardPolicy.EXPANSION for p in self.amplifying_probes):
            return "expansion"
        if self.amplifying_probes:
            return "deletion"
        if self.stateful_probes:
            return "stateful-deletion"
        if self.fetch_flow_amplifies:
            return "fetch-flow"
        return "none"


#: :func:`classify_sbr` answers, by ``(vendor, config, profile)``.
_SBR_MEMO = Memo(maxsize=1024, name="classify_sbr")


def classify_sbr(
    vendor: str,
    config: Optional[VendorConfig] = None,
    profile: Optional[VendorProfile] = None,
) -> SbrClassification:
    """Statically classify one vendor's SBR susceptibility (Table I).

    ``profile`` substitutes a wrapped profile (e.g. a
    ``MitigatedProfile``) for the registry vendor — the recommendation
    engine uses this to prove a mitigation removes the classification.

    The probes run at :data:`DEFAULT_PROBE_SIZES`, never at a caller's
    size, so the answer is memoized by ``(vendor, config, profile)``.
    """

    def classify() -> SbrClassification:
        asked = profile or create_profile(vendor)
        amplifying = []
        stateful = []
        for size in DEFAULT_PROBE_SIZES:
            for shape in SINGLE_RANGE_SHAPES:
                state = EdgeState()
                first = _ask(asked, shape, size, config, state=state)
                if first.amplifying:
                    amplifying.append(first)
                    continue
                # The same node sees the identical request again:
                # KeyCDN deletes the Range header on its second sighting.
                second = _ask(asked, shape, size, config, state=state)
                if second.amplifying:
                    stateful.append(second)
        return SbrClassification(
            vendor=vendor,
            display_name=asked.display_name,
            amplifying_probes=tuple(amplifying),
            stateful_probes=tuple(stateful),
            fetch_flow_amplifies=asked.refetches_after_partial,
        )

    classification: SbrClassification = _SBR_MEMO.get_or_compute(
        (vendor, config, profile), classify
    )
    return classification


#: :func:`classify_obr_frontend` answers, by ``(vendor, config)`` plus
#: ``resource_size`` when a probe read the size.  The answer reads only
#: registry profiles, and a vendor matrix asks each front end once per
#: honoring back end.
_FRONTEND_MEMO = Memo(maxsize=1024, name="obr_frontend")


def classify_obr_frontend(
    vendor: str,
    resource_size: int = 1024,
    config: Optional[VendorConfig] = None,
) -> Tuple[ProbeDecision, ...]:
    """The overlapping multi-range shapes ``vendor`` forwards unchanged
    (Table II membership evidence; empty when unusable as an FCDN).

    Probes none of whose decisions read the resource size (every front
    end but Huawei's, which switches at 10 MB) are stored without it,
    as :func:`~repro.analysis.bounds.static_max_n` stores its search;
    a lookup at another size gets the stored decisions rebuilt with
    the size it asked for."""
    size_free = (vendor, config)
    sized = (vendor, config, resource_size)

    def read() -> Tuple[Tuple[ProbeDecision, ...], Tuple[object, ...]]:
        reads = ContextReads()
        lazy = tuple(
            probe
            for shape in MULTI_RANGE_SHAPES
            for probe in (
                probe_decision(vendor, shape, resource_size, config=config, reads=reads),
            )
            if probe.lazy_unchanged
        )
        return lazy, sized if reads.size else size_free

    lazy: Tuple[ProbeDecision, ...] = _FRONTEND_MEMO.get_or_compute_under(
        (size_free, sized), read
    )
    return tuple(
        probe if probe.resource_size == resource_size
        else replace(probe, resource_size=resource_size)
        for probe in lazy
    )


@dataclass(frozen=True)
class ObrBackendFacts:
    """The back-end half of the OBR requirement (Table III)."""

    vendor: str
    reply_behavior: MultiRangeReplyBehavior
    reply_max_parts: Optional[int]
    multipart_boundary: str

    @property
    def honors_overlapping(self) -> bool:
        return self.reply_behavior is MultiRangeReplyBehavior.HONOR


#: :func:`classify_obr_backend` answers, by vendor.  A vendor matrix asks
#: each back end once per front end.
_BACKEND_MEMO = Memo(maxsize=64, name="obr_backend")


def classify_obr_backend(vendor: str) -> ObrBackendFacts:
    """Read the reply-behavior facts off the profile class."""

    def read() -> ObrBackendFacts:
        profile_cls = profile_class(vendor)
        return ObrBackendFacts(
            vendor=vendor,
            reply_behavior=profile_cls.reply_behavior,
            reply_max_parts=profile_cls.reply_max_parts,
            multipart_boundary=profile_cls.multipart_boundary,
        )

    facts: ObrBackendFacts = _BACKEND_MEMO.get_or_compute(vendor, read)
    return facts


@dataclass(frozen=True)
class CascadeClassification:
    """Whether one FCDN × BCDN cell is OBR-vulnerable (Tables II+III)."""

    fcdn: str
    bcdn: str
    #: Multi-range shapes the FCDN forwards verbatim (possibly under
    #: bypass configuration).
    lazy_probes: Tuple[ProbeDecision, ...]
    #: The FCDN was classified under its declared attack configuration
    #: (cache bypass: Cloudflare).
    requires_bypass: bool
    backend: ObrBackendFacts

    @property
    def vulnerable(self) -> bool:
        return bool(self.lazy_probes) and self.backend.honors_overlapping


def _front_half(
    fcdn: str, resource_size: int, fcdn_config: Optional[VendorConfig]
) -> Tuple[Tuple[ProbeDecision, ...], bool]:
    """The overlapping shapes a cascade's front end forwards verbatim
    under ``fcdn_config`` or, when none is given, the configuration the
    Table V setup declares for it (the profile's ``obr_front_config``:
    Cloudflare under *Bypass*); and whether it ran the declared one."""
    if fcdn_config is not None:
        return classify_obr_frontend(fcdn, resource_size, config=fcdn_config), False
    declared = create_profile(fcdn).obr_front_config
    lazy_probes = classify_obr_frontend(fcdn, resource_size, config=declared)
    return lazy_probes, declared is not None


def classify_cascade(fcdn: str, bcdn: str) -> CascadeClassification:
    """Statically classify one cascade cell as Table V runs it: the 1 KB
    target, the front end under its declared configuration."""
    lazy_probes, requires_bypass = _front_half(fcdn, 1024, None)
    return CascadeClassification(
        fcdn=fcdn,
        bcdn=bcdn,
        lazy_probes=lazy_probes,
        requires_bypass=requires_bypass,
        backend=classify_obr_backend(bcdn),
    )


def vulnerable_cascade(
    fcdn: str,
    bcdn: str,
    resource_size: int,
    fcdn_config: Optional[VendorConfig],
) -> Optional[CascadeClassification]:
    """One cascade cell's classification at ``resource_size`` with the
    front end under ``fcdn_config`` (``None``: the declared one) when
    the cell is vulnerable; ``None`` otherwise.

    Both halves are per-vendor memo reads.  The back half goes first,
    since few back ends honor overlapping ranges (Table III), and a
    classification is built only for a cell where both halves hold.
    """
    backend = classify_obr_backend(bcdn)
    if not backend.honors_overlapping:
        return None
    lazy_probes, requires_bypass = _front_half(fcdn, resource_size, fcdn_config)
    if not lazy_probes:
        return None
    return CascadeClassification(
        fcdn=fcdn,
        bcdn=bcdn,
        lazy_probes=lazy_probes,
        requires_bypass=requires_bypass,
        backend=backend,
    )


@dataclass(frozen=True)
class CcfcClassification:
    """Whether (and why) one vendor is CCFC-vulnerable.

    Pure decision-table read (arXiv 2409.00712 Table 3): the vendor's
    ``Accept-Encoding`` treatment, its edge decompression policy, and
    the best compression ratio among the codings it requests upstream.
    """

    vendor: str
    display_name: str
    encoding_policy: EncodingPolicy
    edge_accept_encoding: Tuple[str, ...]
    edge_decompresses: bool
    #: Smallest compression ratio among the upstream-requested codings —
    #: the inflation driver (``None`` when the edge requests nothing).
    min_ratio: Optional[float]

    @property
    def vulnerable(self) -> bool:
        """Rewrite + edge decompression + a coding that actually shrinks."""
        return (
            self.encoding_policy is EncodingPolicy.REWRITE
            and self.edge_decompresses
            and self.min_ratio is not None
            and self.min_ratio < 1.0
        )

    @property
    def mechanism(self) -> str:
        """The exploitation (or safety) mechanism, for the findings report."""
        if self.encoding_policy is EncodingPolicy.REWRITE:
            if not self.edge_decompresses:
                return "rewrite-no-decompress"
            if self.min_ratio is None or self.min_ratio >= 1.0:
                return "rewrite-incompressible"
            return "rewrite+decompress"
        return self.encoding_policy.value


def classify_ccfc(
    vendor: str,
    profile: Optional[VendorProfile] = None,
) -> CcfcClassification:
    """Statically classify one vendor's CCFC susceptibility.

    A vendor amplifies exactly when it *rewrites* the client's
    ``Accept-Encoding`` toward the origin, *decompresses* at the edge
    for clients that cannot accept the stored coding, and at least one
    requested coding actually compresses (ratio < 1).  Forwarding or
    stripping vendors let the origin fall back to identity; Tencent's
    rewrite-without-decompression relays the compressed bytes as-is.
    """
    profile = profile or create_profile(vendor)
    ratios = [
        profile.compression_ratios.get(coding.lower(), 1.0)
        for coding in profile.edge_accept_encoding
    ]
    return CcfcClassification(
        vendor=vendor,
        display_name=profile.display_name,
        encoding_policy=profile.encoding_policy,
        edge_accept_encoding=tuple(profile.edge_accept_encoding),
        edge_decompresses=profile.edge_decompresses,
        min_ratio=min(ratios) if ratios else None,
    )

