"""The paper's first experiment: probing range-handling policies.

Tables I–III were produced by sending "a large number of valid range
requests automatically generated based on the ABNF rules" through each
CDN while capturing both the client side and the origin side, then
diffing what was sent against what arrived.  :class:`FeasibilityProbe`
does the same against a simulated deployment:

* **forwarding** observations (Tables I and II) come from comparing the
  client's Range header with the Range header(s) the origin received —
  the origin side is captured with
  :class:`~repro.core.deployment.RecordingHandler`;
* **replying** observations (Table III) come from sending overlapping
  multi-range requests at an origin with range support disabled and
  classifying the response the CDN builds.

Every case is sent twice at the same cache-busted URL so stateful
policies (KeyCDN's second-sighting Deletion) are observable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cdn.vendors import all_vendor_names
from repro.cdn.vendors.base import VendorConfig
from repro.core.cachebusting import CacheBuster
from repro.core.deployment import CdnSpec, Deployment
from repro.http.grammar import RangeCase, RangeCorpusGenerator, RangeFormat
from repro.http.ranges import try_parse_range_header
from repro.http.status import StatusCode
from repro.origin.server import OriginServer

#: Classification labels for observed forwarding behavior.
LAZINESS = "laziness"
DELETION = "deletion"
EXPANSION = "expansion"
MODIFIED = "modified"
NOT_FORWARDED = "not-forwarded"

#: Where the probe's origin hosts the test resource.
PROBE_PATH = "/probe.bin"
#: Sends per forwarding case, at one cache-busted URL (see above).
SENDS_PER_CASE = 2
#: Overlapping ``0-`` ranges in the Table III reply probe.
REPLY_OVERLAPS = 4


@dataclass(frozen=True)
class ForwardingObservation:
    """How one Range case was forwarded, over two identical sends."""

    vendor: str
    case: RangeCase
    #: Range values the origin received, per send: each send contributes
    #: a tuple of the values seen (a vendor may open several upstream
    #: connections per request, e.g. StackPath's "& None").
    forwarded_per_send: Tuple[Tuple[Optional[str], ...], ...]
    #: Classified policy per send.
    policies_per_send: Tuple[Tuple[str, ...], ...]

    @property
    def policies(self) -> Tuple[str, ...]:
        """All policies observed across sends, flattened."""
        return tuple(p for send in self.policies_per_send for p in send)

    @property
    def amplifying(self) -> bool:
        """True when any send triggered Deletion or Expansion."""
        return any(p in (DELETION, EXPANSION) for p in self.policies)

    @property
    def lazy_throughout(self) -> bool:
        """True when every send that reached the origin was forwarded
        unchanged (cache hits are not evidence either way)."""
        reached = [p for p in self.policies if p != NOT_FORWARDED]
        return bool(reached) and all(p == LAZINESS for p in reached)


@dataclass(frozen=True)
class ReplyObservation:
    """How a CDN replies to an overlapping multi-range request when it
    holds the full representation (Table III)."""

    vendor: str
    overlap_count: int
    status: int
    response_size: int
    resource_size: int
    honors_overlapping: bool
    #: Observed part-count limit, if the CDN enforces one (Azure's 64).
    part_limit: Optional[int]


#: The multi-range formats Table II classifies laziness by.
_MULTI_FORMATS = (
    RangeFormat.MULTI_OPEN,
    RangeFormat.SUFFIX_THEN_OPEN,
    RangeFormat.MULTI_OPEN_LEAD_ONE,
)


@dataclass
class VendorFeasibility:
    """Aggregated Table I/II/III verdicts for one vendor."""

    vendor: str
    forwarding: List[ForwardingObservation] = field(default_factory=list)
    #: Multi-range observations taken under the cache-bypass configuration
    #: (the Cloudflare (*) condition in Table II).
    bypass_forwarding: List[ForwardingObservation] = field(default_factory=list)
    reply: Optional[ReplyObservation] = None

    @property
    def sbr_vulnerable(self) -> bool:
        """Table I membership: some single-range format amplifies."""
        return any(
            obs.amplifying and obs.case.format in (
                RangeFormat.FIRST_LAST, RangeFormat.FIRST_OPEN, RangeFormat.SUFFIX,
                RangeFormat.MULTI_CLOSED,
            )
            for obs in self.forwarding
        )

    @property
    def obr_fcdn_vulnerable(self) -> bool:
        """Table II membership: some overlapping multi-range format is
        forwarded unchanged, under the default or bypass configuration."""
        return any(
            obs.lazy_throughout and obs.case.format in _MULTI_FORMATS
            for obs in self.forwarding + self.bypass_forwarding
        )

    @property
    def obr_fcdn_conditional(self) -> bool:
        """True when laziness only shows under the bypass configuration
        (Table II's (*) marker)."""
        default_lazy = any(
            obs.lazy_throughout and obs.case.format in _MULTI_FORMATS
            for obs in self.forwarding
        )
        return self.obr_fcdn_vulnerable and not default_lazy

    @property
    def obr_bcdn_vulnerable(self) -> bool:
        """Table III membership: overlapping ranges honored as an n-part
        response."""
        return self.reply is not None and self.reply.honors_overlapping

    def amplifying_formats(self) -> List[Tuple[str, str]]:
        """(format, policy) pairs behind the Table I verdict."""
        pairs: List[Tuple[str, str]] = []
        for obs in self.forwarding:
            if not obs.amplifying:
                continue
            policy = DELETION if DELETION in obs.policies else EXPANSION
            pair = (obs.case.format.value, policy)
            if pair not in pairs:
                pairs.append(pair)
        return pairs

    def lazy_multi_formats(self) -> List[str]:
        """Formats behind the Table II verdict (both configurations)."""
        formats: List[str] = []
        for obs in self.forwarding + self.bypass_forwarding:
            if obs.lazy_throughout and obs.case.format in _MULTI_FORMATS:
                if obs.case.format.value not in formats:
                    formats.append(obs.case.format.value)
        return formats


class FeasibilityProbe:
    """Probe one vendor's range-specific policies."""

    def __init__(
        self,
        vendor: str,
        file_size: int = 64 * 1024,
        corpus: Optional[Sequence[RangeCase]] = None,
    ) -> None:
        self.vendor = vendor
        self.file_size = file_size
        generator = RangeCorpusGenerator(file_size=file_size)
        self.corpus = list(corpus) if corpus is not None else generator.full_corpus()

    def _multi_corpus(self) -> List[RangeCase]:
        """Just the overlapping multi-range cases (the Table II probes)."""
        return [case for case in self.corpus if case.format in _MULTI_FORMATS]

    # -- forwarding (Tables I & II) -----------------------------------------------

    def observe_forwarding(
        self,
        corpus: Optional[Sequence[RangeCase]] = None,
        config: Optional["VendorConfig"] = None,
    ) -> List[ForwardingObservation]:
        cases = list(corpus) if corpus is not None else self.corpus
        return [self._observe_case(case, config=config) for case in cases]

    def _observe_case(
        self, case: RangeCase, config: Optional["VendorConfig"] = None
    ) -> ForwardingObservation:
        origin = OriginServer()
        origin.add_synthetic_resource(PROBE_PATH, self.file_size)
        deployment = Deployment.single(CdnSpec(vendor=self.vendor, config=config), origin)
        client = deployment.client()
        tap = deployment.origin_tap
        target = CacheBuster().bust(PROBE_PATH)

        forwarded_per_send: List[Tuple[Optional[str], ...]] = []
        policies_per_send: List[Tuple[str, ...]] = []
        for _ in range(SENDS_PER_CASE):
            before = len(tap.requests)
            client.get(target, range_value=case.header_value)
            seen = tuple(tap.range_values_seen[before:])
            forwarded_per_send.append(seen)
            policies_per_send.append(
                tuple(self._classify(case.header_value, value) for value in seen)
                or (NOT_FORWARDED,)
            )
        return ForwardingObservation(
            vendor=self.vendor,
            case=case,
            forwarded_per_send=tuple(forwarded_per_send),
            policies_per_send=tuple(policies_per_send),
        )

    def _classify(self, client_value: str, forwarded_value: Optional[str]) -> str:
        if forwarded_value is None:
            return DELETION
        if forwarded_value == client_value:
            return LAZINESS
        client_spec = try_parse_range_header(client_value)
        forwarded_spec = try_parse_range_header(forwarded_value)
        if client_spec is None or forwarded_spec is None:
            return MODIFIED
        client_bytes = client_spec.requested_bytes(self.file_size)
        forwarded_bytes = forwarded_spec.requested_bytes(self.file_size)
        if forwarded_bytes > client_bytes:
            return EXPANSION
        return MODIFIED

    # -- replying (Table III) --------------------------------------------------------

    def observe_reply(self) -> ReplyObservation:
        """Send an overlapping multi-range request at a range-disabled
        origin and classify the CDN-built response."""
        status, size = self._reply_probe(REPLY_OVERLAPS)
        honors = status == StatusCode.PARTIAL_CONTENT and size >= REPLY_OVERLAPS * self.file_size
        part_limit: Optional[int] = None
        if honors:
            over_status, _ = self._reply_probe(65)
            if over_status != StatusCode.PARTIAL_CONTENT:
                part_limit = 64
        return ReplyObservation(
            vendor=self.vendor,
            overlap_count=REPLY_OVERLAPS,
            status=status,
            response_size=size,
            resource_size=self.file_size,
            honors_overlapping=honors,
            part_limit=part_limit,
        )

    def _reply_probe(self, overlap_count: int) -> Tuple[int, int]:
        origin = OriginServer(range_support=False)
        origin.add_synthetic_resource(PROBE_PATH, self.file_size)
        deployment = Deployment.single(CdnSpec(vendor=self.vendor), origin)
        client = deployment.client()
        range_value = "bytes=" + ",".join(["0-"] * overlap_count)
        result = client.get(PROBE_PATH, range_value=range_value)
        return result.response.status, len(result.response.body)

    # -- aggregate --------------------------------------------------------------------

    def assess(self) -> VendorFeasibility:
        """Run the full probe: forwarding under the default configuration,
        multi-range forwarding additionally under cache bypass (the
        Cloudflare (*) condition), and the Table III reply probe."""
        verdict = VendorFeasibility(vendor=self.vendor)
        verdict.forwarding = self.observe_forwarding()
        verdict.bypass_forwarding = self.observe_forwarding(
            corpus=self._multi_corpus(), config=VendorConfig(bypass_cache=True)
        )
        verdict.reply = self.observe_reply()
        return verdict


def survey(vendors: Optional[Sequence[str]] = None, file_size: int = 64 * 1024) -> Dict[str, VendorFeasibility]:
    """Run the full experiment-1 survey over ``vendors`` (default: all 13)."""
    names = list(vendors) if vendors is not None else all_vendor_names()
    return {name: FeasibilityProbe(name, file_size=file_size).assess() for name in names}
