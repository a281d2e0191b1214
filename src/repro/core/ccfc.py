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

:meth:`CcfcAttack.run` is the wire-level simulation through a real
:class:`~repro.core.deployment.Deployment` (fresh caches, ledger).  Its
closed-form replay, :func:`~repro.analysis.bounds.ccfc_mirror`, lives
with the static bounds (with the attack request and the result type):
it reuses the byte-defining code paths (the profile's own fetch flow, a
real :class:`~repro.origin.server.OriginServer`, the edge's conversion
and finalize helpers) so its result equals ``run()``'s **by
construction**, without loading the traffic stack.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.analysis.bounds import (
    CCFC_TARGET_PATH,
    CLIENT_ACCEPT_ENCODING,
    CcfcResult,
    ccfc_mirror,
    default_attack_encodings,
    negotiated_encoding,
)
from repro.analysis.classify import TARGET_HOST
from repro.cdn.vendors import create_profile
from repro.core.amplification import AmplificationReport
from repro.core.cachebusting import CacheBuster
from repro.core.deployment import CdnSpec, Deployment
from repro.http.encoding import IDENTITY
from repro.netsim.tap import CDN_ORIGIN, CLIENT_CDN
from repro.obs.tracer import current_tracer
from repro.origin.resource import Resource
from repro.origin.server import OriginServer

if TYPE_CHECKING:
    from repro.cdn.vendors.base import VendorProfile
    from repro.runner.grid import ExperimentGrid

MB = 1 << 20


class CcfcAttack:
    """Run the CCFC attack against one vendor profile.

    Unlike SBR, the victim segment is **client-cdn**: the CDN's egress
    (its bandwidth bill, or the link to a spoofed victim) carries the
    inflated bodies, while the attacker pays only the compressed
    cdn-origin traffic.

    ``profile`` substitutes a wrapped profile (e.g. a
    ``MitigatedProfile``) for the registry vendor — the recommendation
    engine's before/after measurement.  The origin's pre-compressed
    variants are sized by the profile's compression ratios
    (:func:`~repro.analysis.bounds.default_attack_encodings`).
    """

    def __init__(
        self,
        vendor: str,
        resource_size: int = 10 * MB,
        profile: Optional["VendorProfile"] = None,
    ) -> None:
        self.vendor = vendor
        self.resource_size = resource_size
        self.profile = profile

    def build_deployment(self) -> Deployment:
        profile = self.profile or create_profile(self.vendor)
        origin = OriginServer()
        origin.add_resource(
            Resource(
                path=CCFC_TARGET_PATH,
                body=self.resource_size,
                encodings=default_attack_encodings(profile, self.resource_size),
            )
        )
        spec = CdnSpec(profile=profile)
        return Deployment.single(spec, origin)

    def run(self, rounds: int = 1) -> CcfcResult:
        """Execute ``rounds`` attack rounds and measure amplification.

        One round sends a single identity-only GET at a cache-busted URL.
        """
        if rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {rounds}")
        deployment = self.build_deployment()
        profile = deployment.front.profile
        resource = deployment.origin.store.get(CCFC_TARGET_PATH)
        encoding = negotiated_encoding(profile, resource.encodings or {})
        client = deployment.client(host=TARGET_HOST)
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
                target = buster.bust(CCFC_TARGET_PATH)
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

    def mirror(self) -> CcfcResult:
        """Closed-form replay of one round of :meth:`run` without a
        deployment (:func:`~repro.analysis.bounds.ccfc_mirror`)."""
        return ccfc_mirror(
            self.vendor, self.resource_size, profile=self.profile
        )


def ccfc_grid(sizes: Tuple[int, ...] = (1 * MB, 10 * MB)) -> "ExperimentGrid":
    """Every vendor x ``sizes`` as a CCFC experiment grid."""
    from repro.cdn.vendors import all_vendor_names
    from repro.families.ccfc import grid_cell
    from repro.runner.grid import ExperimentGrid

    names = all_vendor_names()
    return ExperimentGrid(
        "ccfc", [grid_cell(vendor, size) for vendor in names for size in sizes]
    )
