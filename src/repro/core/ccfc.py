"""The CCFC attack — CDN Compression Format Conversion (arXiv 2409.00712).

The attacker hosts a tiny, highly compressible resource behind a CDN and
requests it with ``Accept-Encoding: identity``.  A vendor that *rewrites*
the header to its own ``br``/``gzip`` preference fetches the compressed
variant from the origin (kilobytes), then — because the client declared
it cannot accept that coding — decompresses at the edge and ships the
inflated identity representation (megabytes).  The origin-side cost the
attacker pays is the compressed size; the CDN's egress is the full size:
the same per-vendor-behavior-table amplification shape as RangeAmp, one
header dimension over.

Two objects live here:

* :class:`CcfcAttack.run` — the wire-level simulation through a real
  :class:`~repro.core.deployment.Deployment` (fresh caches, ledger).
* :class:`CcfcAttack.mirror` — a closed-form replay that reuses the
  byte-defining code paths (the profile's own fetch flow, a real
  :class:`~repro.origin.server.OriginServer`, the node module's
  conversion/finalize helpers) so its result equals ``run()``'s **by
  construction**.  The static CCFC bound is built on it; the fast-path
  grid engine answers cells with ``run()``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Mapping, Optional, Tuple

from repro.cdn.node import convert_encoded_response, finalize_client_response
from repro.cdn.vendors import create_profile
from repro.cdn.vendors.base import VendorConfig, VendorContext, VendorProfile
from repro.core.amplification import AmplificationReport
from repro.core.cachebusting import CacheBuster
from repro.core.deployment import CdnSpec, Deployment
from repro.errors import ConfigurationError
from repro.http.encoding import IDENTITY, accepts_encoding
from repro.http.headers import Headers
from repro.http.message import HttpRequest, HttpResponse
from repro.netsim.overhead import NullOverheadModel, OverheadModel
from repro.netsim.tap import CDN_ORIGIN, CLIENT_CDN, SegmentStats
from repro.obs.tracer import current_tracer
from repro.origin.resource import Resource
from repro.origin.server import OriginServer

if TYPE_CHECKING:
    from repro.runner.grid import ExperimentGrid

MB = 1 << 20

#: Content codings the attacker's origin pre-compresses, ordered by how
#: hard they shrink (br beats gzip on the attack payload).
ATTACK_ENCODINGS: Tuple[str, ...] = ("br", "gzip")

#: The Accept-Encoding the CCFC attacker declares: identity-only, so a
#: rewriting CDN that fetched br/gzip must inflate at the edge.
CLIENT_ACCEPT_ENCODING = IDENTITY


def default_attack_encodings(profile: VendorProfile, resource_size: int) -> Dict[str, int]:
    """The pre-compressed variants the attacker's origin hosts, sized by
    the profile's per-format compression ratios."""
    return {
        coding: profile.compressed_size(coding, resource_size)
        for coding in ATTACK_ENCODINGS
    }


def negotiated_encoding(
    profile: VendorProfile,
    encodings: Mapping[str, int],
    client_accept: str = CLIENT_ACCEPT_ENCODING,
) -> Optional[str]:
    """The coding the origin picks for one attack request, or ``None``.

    Mirrors the origin's smallest-acceptable-variant negotiation as seen
    through the profile's upstream ``Accept-Encoding`` rewrite: a
    stripped header (``None`` upstream) or one that only accepts
    identity yields no non-identity variant.
    """
    upstream = profile.upstream_accept_encoding(client_accept)
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


class CcfcAttack:
    """Run the CCFC attack against one vendor profile.

    Unlike SBR, the victim segment is **client-cdn**: the CDN's egress
    (its bandwidth bill, or the link to a spoofed victim) carries the
    inflated bodies, while the attacker pays only the compressed
    cdn-origin traffic.

    ``profile_factory`` substitutes a wrapped profile (e.g. a
    ``MitigatedProfile``) for the registry vendor — the recommendation
    engine's before/after measurement.  ``encodings`` overrides the
    origin's pre-compressed variant table (coding → compressed bytes);
    by default it is derived from the profile's compression ratios.
    """

    def __init__(
        self,
        vendor: str,
        resource_size: int = 10 * MB,
        resource_path: str = "/target.bin",
        config: Optional[VendorConfig] = None,
        overhead: Optional[OverheadModel] = None,
        host: str = "victim.example",
        profile_factory: Optional[Callable[[], "VendorProfile"]] = None,
        encodings: Optional[Mapping[str, int]] = None,
    ) -> None:
        self.vendor = vendor
        self.resource_size = resource_size
        self.resource_path = resource_path
        self.config = config
        self.overhead = overhead
        self.host = host
        self.profile_factory = profile_factory
        self.encodings = dict(encodings) if encodings is not None else None

    def _build_profile(self) -> VendorProfile:
        if self.profile_factory is not None:
            return self.profile_factory()
        return create_profile(self.vendor)

    def _resource_encodings(self, profile: VendorProfile) -> Dict[str, int]:
        if self.encodings is not None:
            return dict(self.encodings)
        return default_attack_encodings(profile, self.resource_size)

    def _build_request(self, target: str) -> HttpRequest:
        """The attack request, built exactly like ``Client.get`` does."""
        headers = Headers([("Host", self.host)])
        headers.add("Accept-Encoding", CLIENT_ACCEPT_ENCODING)
        return HttpRequest(method="GET", target=target, headers=headers)

    def build_deployment(self) -> Deployment:
        profile = self._build_profile()
        origin = OriginServer()
        origin.add_resource(
            Resource(
                path=self.resource_path,
                body=self.resource_size,
                encodings=self._resource_encodings(profile),
            )
        )
        spec = CdnSpec(profile=profile, config=self.config)
        return Deployment.single(spec, origin, overhead=self.overhead)

    def run(self, rounds: int = 1) -> CcfcResult:
        """Execute ``rounds`` attack rounds and measure amplification.

        One round sends a single identity-only GET at a cache-busted URL.
        """
        if rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {rounds}")
        deployment = self.build_deployment()
        profile = deployment.front.profile
        resource = deployment.origin.store.get(self.resource_path)
        encoding = negotiated_encoding(profile, resource.encodings or {})
        client = deployment.client(host=self.host)
        buster = CacheBuster()
        statuses: List[int] = []
        with current_tracer().span("attack.ccfc") as span:
            if span.recording:
                span.set(
                    vendor=self.vendor,
                    resource_size=self.resource_size,
                    rounds=rounds,
                    encoding=encoding or IDENTITY,
                )
            for _ in range(rounds):
                target = buster.bust(self.resource_path)
                result = client.get(
                    target,
                    extra_headers=[("Accept-Encoding", CLIENT_ACCEPT_ENCODING)],
                )
                statuses.append(result.response.status)
            report = AmplificationReport.from_ledger(
                deployment.ledger,
                victim_segment=CLIENT_CDN,
                attacker_segment=CDN_ORIGIN,
            )
            if span.recording:
                span.set(amplification=report.factor)
        return CcfcResult(
            vendor=self.vendor,
            resource_size=self.resource_size,
            rounds=rounds,
            encoding=encoding,
            client_traffic=report.victim_bytes,
            origin_traffic=report.attacker_bytes,
            statuses=tuple(statuses),
            report=report,
        )

    def mirror(self, rounds: int = 1) -> CcfcResult:
        """Closed-form replay of :meth:`run` without a deployment.

        Every byte-defining step goes through the same code the live
        pipeline runs — the profile's ``fetch`` flow against a real
        origin, :func:`~repro.cdn.node.convert_encoded_response`, and
        :func:`~repro.cdn.node.finalize_client_response` — but bodies
        stay synthetic and no ledger objects are built, so the cost is
        O(rounds) in message-header work regardless of resource size.
        """
        if rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {rounds}")
        profile = self._build_profile()
        config = self.config if self.config is not None else profile.effective_config()
        overhead = self.overhead if self.overhead is not None else NullOverheadModel()
        encodings = self._resource_encodings(profile)
        origin = OriginServer()
        resource = origin.add_resource(
            Resource(path=self.resource_path, body=self.resource_size, encodings=encodings)
        )
        buster = CacheBuster()
        setup = overhead.connection_setup_bytes()

        client_connections = 0
        client_request_bytes = 0
        client_sent = 0
        upstream_connections = 0
        upstream_request_bytes = 0
        upstream_sent = 0
        upstream_delivered = 0
        statuses: List[int] = []

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
            upstream_request_bytes += overhead.framed_size(upstream_request.wire_size())
            sent = overhead.framed_size(response.wire_size()) + setup
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

        for _ in range(rounds):
            target = buster.bust(self.resource_path)
            request = self._build_request(target)
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
            statuses.append(response.status)
            client_connections += 1
            client_request_bytes += overhead.framed_size(request.wire_size())
            client_sent += overhead.framed_size(response.wire_size()) + setup

        segments: Dict[str, SegmentStats] = {
            CLIENT_CDN: SegmentStats(
                segment=CLIENT_CDN,
                connection_count=client_connections,
                exchange_count=client_connections,
                request_bytes=client_request_bytes,
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
            vendor=self.vendor,
            resource_size=self.resource_size,
            rounds=rounds,
            encoding=negotiated_encoding(profile, encodings),
            client_traffic=report.victim_bytes,
            origin_traffic=report.attacker_bytes,
            statuses=tuple(statuses),
            report=report,
        )


def sweep_resource_sizes(
    vendor: str,
    sizes: List[int],
    config: Optional[VendorConfig] = None,
) -> List[CcfcResult]:
    """Measure the CCFC factor for each resource size."""
    return [
        CcfcAttack(vendor, resource_size=size, config=config).run() for size in sizes
    ]


def ccfc_grid(
    vendors: Optional[List[str]] = None,
    sizes: Tuple[int, ...] = (1 * MB, 10 * MB),
    name: str = "ccfc",
) -> "ExperimentGrid":
    """The vendor x size CCFC sweep as an experiment grid."""
    from repro.cdn.vendors import all_vendor_names
    from repro.runner.experiments import ccfc_cell
    from repro.runner.grid import ExperimentGrid

    names = list(vendors) if vendors is not None else all_vendor_names()
    return ExperimentGrid(
        name, [ccfc_cell(vendor, size) for vendor in names for size in sizes]
    )


__all__ = [
    "ATTACK_ENCODINGS",
    "CLIENT_ACCEPT_ENCODING",
    "CcfcAttack",
    "CcfcResult",
    "ccfc_grid",
    "default_attack_encodings",
    "negotiated_encoding",
    "sweep_resource_sizes",
]
