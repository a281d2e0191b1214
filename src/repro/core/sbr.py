"""The Small Byte Range (SBR) attack (paper §IV-B, §V-B).

The attacker sends a range request asking for almost nothing
(``Range: bytes=0-0``) at a cache-busted URL.  A CDN applying *Deletion*
or *Expansion* fetches the whole resource (or a large window) from the
origin, but returns only the requested byte to the attacker.  The
origin's outgoing bandwidth is consumed at an amplification factor
roughly proportional to the resource size.

Table IV's per-vendor exploited range cases are declared by each
vendor's profile class (``sbr_cases``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.cdn.vendors import create_profile, profile_class
from repro.core.amplification import AmplificationReport
from repro.core.cachebusting import CacheBuster
from repro.core.deployment import CdnSpec, Deployment
from repro.netsim.overhead import OverheadModel
from repro.netsim.tap import CDN_ORIGIN, CLIENT_CDN
from repro.obs.tracer import current_tracer
from repro.origin.server import OriginServer

if TYPE_CHECKING:
    from repro.cdn.vendors.base import VendorProfile
    from repro.runner.grid import ExperimentGrid

MB = 1 << 20


@dataclass(frozen=True)
class SbrResult:
    """Outcome of one SBR measurement."""

    vendor: str
    resource_size: int
    rounds: int
    #: Response traffic the attacker received on client-cdn (bytes).
    client_traffic: int
    #: Response traffic the origin pushed on cdn-origin (bytes).
    origin_traffic: int
    #: HTTP statuses of the client-side responses.
    statuses: Tuple[int, ...]
    report: AmplificationReport

    @property
    def amplification(self) -> float:
        return self.report.factor


class SbrAttack:
    """Run the SBR attack against one vendor profile.

    Each :meth:`run` builds a *fresh* deployment (fresh caches, fresh
    ledger) so results are independent and repeatable.

    ``profile`` substitutes a wrapped profile (e.g. a
    ``MitigatedProfile``) for the registry vendor while keeping the
    vendor's exploited range cases — the recommendation engine's
    before/after measurement.
    """

    def __init__(
        self,
        vendor: str,
        resource_size: int = 10 * MB,
        resource_path: str = "/target.bin",
        config: Optional[object] = None,
        overhead: Optional[OverheadModel] = None,
        host: str = "victim.example",
        profile: Optional["VendorProfile"] = None,
    ) -> None:
        self.vendor = vendor
        self.resource_size = resource_size
        self.resource_path = resource_path
        self.config = config
        self.overhead = overhead
        self.host = host
        self.profile = profile

    def build_deployment(self) -> Deployment:
        origin = OriginServer()
        origin.add_synthetic_resource(self.resource_path, self.resource_size)
        profile = self.profile or create_profile(self.vendor)
        spec = CdnSpec(profile=profile, config=self.config)  # type: ignore[arg-type]
        return Deployment.single(spec, origin, overhead=self.overhead)

    def run(self, rounds: int = 1, range_cases: Optional[List[str]] = None) -> SbrResult:
        """Execute ``rounds`` attack rounds and measure amplification.

        One round sends every Range value in the vendor's exploited case
        at a single cache-busted URL (KeyCDN's two sends must hit the
        same URL to trigger the second-sighting Deletion).
        """
        if rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {rounds}")
        cases = (
            range_cases
            if range_cases is not None
            else profile_class(self.vendor).sbr_cases_at(self.resource_size)
        )
        deployment = self.build_deployment()
        client = deployment.client(host=self.host)
        buster = CacheBuster()
        statuses: List[int] = []
        with current_tracer().span("attack.sbr") as span:
            if span.recording:
                span.set(
                    vendor=self.vendor,
                    resource_size=self.resource_size,
                    rounds=rounds,
                    range_cases=list(cases),
                )
            for _ in range(rounds):
                target = buster.bust(self.resource_path)
                for range_value in cases:
                    result = client.get(target, range_value=range_value)
                    statuses.append(result.response.status)
            report = AmplificationReport.from_ledger(
                deployment.ledger, victim_segment=CDN_ORIGIN, attacker_segment=CLIENT_CDN
            )
            if span.recording:
                span.set(amplification=report.factor)
        return SbrResult(
            vendor=self.vendor,
            resource_size=self.resource_size,
            rounds=rounds,
            client_traffic=report.attacker_bytes,
            origin_traffic=report.victim_bytes,
            statuses=tuple(statuses),
            report=report,
        )


def sweep_resource_sizes(vendor: str, sizes: List[int]) -> List[SbrResult]:
    """Measure the SBR factor for each resource size (the Fig 6 sweep)."""
    return [SbrAttack(vendor, resource_size=size).run() for size in sizes]


def sbr_grid(
    vendors: Optional[List[str]] = None,
    sizes: Tuple[int, ...] = (1 * MB, 10 * MB, 25 * MB),
    name: str = "sbr",
) -> "ExperimentGrid":
    """The vendor x size sweep as an :class:`~repro.runner.grid.ExperimentGrid`.

    One grid serves both Table IV and Fig 6: build it with the union of
    their size axes and the grid dedups overlapping cells.
    """
    from repro.cdn.vendors import all_vendor_names
    from repro.families.sbr import grid_cell
    from repro.runner.grid import ExperimentGrid

    names = list(vendors) if vendors is not None else all_vendor_names()
    return ExperimentGrid(
        name, [grid_cell(vendor, size) for vendor in names for size in sizes]
    )
