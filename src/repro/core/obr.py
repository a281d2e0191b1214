"""The Overlapping Byte Ranges (OBR) attack (paper §IV-C, §V-C).

Two CDNs are cascaded: the attacker configures the front CDN's origin to
be an ingress node of the back CDN, and the back CDN's origin to be a
server where range support is disabled.  A multi-range request with
``n`` overlapping ``0-`` ranges is forwarded *unchanged* by the FCDN
(Laziness); the BCDN fetches the 200 full-body response from the origin
and expands it into an ``n``-part ``multipart/byteranges`` response — up
to ``n`` times the resource size on the fcdn–bcdn link.

``n`` is bounded by the header limits of both CDNs on the path.  Each
limit is linear in ``n``, so :mod:`repro.analysis.bounds` solves the
cascade's cap from the declared limits, and :meth:`ObrAttack.find_max_n`
certifies it the way the paper measured it — by probing that ``n``
survives end-to-end and ``n + 1`` does not.  The attack request's
leading spec and the front end's configuration are declared by the
front end's profile class (``obr_leading_spec``, ``obr_front_config``).

Traffic accounting uses a TCP/IP framing model by default: the paper's
Table V numbers come from packet captures of short connections, where
handshake and segment overhead are a visible fraction of the ~1.7 KB
bcdn–origin responses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.analysis.bounds import declared_max_n, largest_admitted
from repro.analysis.classify import (
    CLIENT_ABORT_AFTER,
    MAX_OVERLAPS,
    TARGET_HOST,
    TARGET_PATH,
)
from repro.core.amplification import AmplificationReport
from repro.core.deployment import CdnSpec, Deployment
from repro.cdn.vendors import OBR_BACKENDS, OBR_FRONTENDS, create_profile, profile_class
from repro.errors import ConfigurationError
from repro.http.grammar import overlapping_open_ranges_value
from repro.http.status import StatusCode
from repro.netsim.overhead import OverheadModel, TcpOverheadModel
from repro.netsim.tap import BCDN_ORIGIN, FCDN_BCDN
from repro.obs.tracer import current_tracer
from repro.origin.server import OriginServer

if TYPE_CHECKING:
    from repro.cdn.vendors.base import VendorProfile
    from repro.runner.grid import ExperimentGrid


@dataclass(frozen=True)
class ObrResult:
    """Outcome of one OBR measurement."""

    fcdn: str
    bcdn: str
    resource_size: int
    overlap_count: int
    range_value_size: int
    #: Response traffic origin → BCDN (bytes).
    bcdn_origin_traffic: int
    #: Response traffic BCDN → FCDN (bytes) — the victim link.
    fcdn_bcdn_traffic: int
    #: Response bytes the aborting attacker actually received.
    client_traffic: int
    status: int
    report: AmplificationReport

    @property
    def amplification(self) -> float:
        return self.report.factor


class ObrAttack:
    """Run the OBR attack through one FCDN × BCDN combination."""

    def __init__(
        self,
        fcdn: str,
        bcdn: str,
        resource_size: int = 1024,
        overhead: Optional[OverheadModel] = None,
        fcdn_profile: Optional["VendorProfile"] = None,
        bcdn_profile: Optional["VendorProfile"] = None,
    ) -> None:
        if fcdn == bcdn:
            raise ConfigurationError(
                "a CDN is not cascaded with itself (paper Table V excludes it)"
            )
        self.fcdn = fcdn
        self.bcdn = bcdn
        self.resource_size = resource_size
        # Capture-like accounting by default; see module docstring.
        self.overhead = overhead if overhead is not None else TcpOverheadModel()
        # Mitigated-profile substitution on either side of the cascade
        # (shared by every deployment; each node keeps its own state).
        self.fcdn_profile = fcdn_profile
        self.bcdn_profile = bcdn_profile

    # -- deployment -----------------------------------------------------------

    def build_deployment(self) -> Deployment:
        # The attacker disables range support on their origin so the BCDN
        # receives a full 200 and builds the multipart itself.
        origin = OriginServer(range_support=False)
        origin.add_synthetic_resource(TARGET_PATH, self.resource_size)
        config = profile_class(self.fcdn).obr_front_config
        fcdn_spec = CdnSpec(profile=self.fcdn_profile or create_profile(self.fcdn), config=config)
        bcdn_spec = CdnSpec(profile=self.bcdn_profile or create_profile(self.bcdn))
        return Deployment.cascade(fcdn_spec, bcdn_spec, origin, overhead=self.overhead)

    def range_value(self, overlap_count: int) -> str:
        return overlapping_open_ranges_value(
            overlap_count, leading=profile_class(self.fcdn).obr_leading_spec
        )

    # -- max-n search -----------------------------------------------------------

    def probe(self, overlap_count: int) -> int:
        """Send one attack request with ``overlap_count`` ranges against a
        fresh deployment; returns the client-side HTTP status."""
        deployment = self.build_deployment()
        client = deployment.client(host=TARGET_HOST)
        result = client.get(
            TARGET_PATH,
            range_value=self.range_value(overlap_count),
            abort_after=CLIENT_ABORT_AFTER,
        )
        return result.response.status

    def find_max_n(self) -> int:
        """Largest ``n`` in ``[2, MAX_OVERLAPS]`` that survives both CDNs'
        header limits end-to-end.

        The cascade's declared limits give the answer by division
        (:func:`~repro.analysis.bounds.declared_max_n`); two probes
        against fresh deployments, at ``n`` and ``n + 1``, certify it the
        way an attacker (or the paper's authors) would observe the
        boundary.  Returns 0 when even ``n = 2`` is rejected.
        """
        guess = declared_max_n(
            self.fcdn,
            self.bcdn,
            self.resource_size,
            self.fcdn_profile,
            self.bcdn_profile,
        )
        return largest_admitted(
            lambda n: self.probe(n) == StatusCode.PARTIAL_CONTENT, 2, MAX_OVERLAPS, guess
        )

    # -- measurement ---------------------------------------------------------------

    def run(self, overlap_count: Optional[int] = None) -> ObrResult:
        """Execute one attack request and measure per-segment traffic.

        ``overlap_count=None`` first searches the maximum ``n`` (the
        paper's Table V methodology).
        """
        n = overlap_count if overlap_count is not None else self.find_max_n()
        if n < 1:
            raise ConfigurationError(
                f"{self.fcdn} -> {self.bcdn} admits no overlapping ranges"
            )
        deployment = self.build_deployment()
        client = deployment.client(host=TARGET_HOST)
        range_value = self.range_value(n)
        with current_tracer().span("attack.obr") as span:
            if span.recording:
                span.set(
                    fcdn=self.fcdn,
                    bcdn=self.bcdn,
                    resource_size=self.resource_size,
                    overlap_count=n,
                )
            result = client.get(
                TARGET_PATH, range_value=range_value, abort_after=CLIENT_ABORT_AFTER
            )
            report = AmplificationReport.from_ledger(
                deployment.ledger, victim_segment=FCDN_BCDN, attacker_segment=BCDN_ORIGIN
            )
            if span.recording:
                span.set(amplification=report.factor)
        return ObrResult(
            fcdn=self.fcdn,
            bcdn=self.bcdn,
            resource_size=self.resource_size,
            overlap_count=n,
            range_value_size=len(range_value),
            bcdn_origin_traffic=report.attacker_bytes,
            fcdn_bcdn_traffic=report.victim_bytes,
            client_traffic=result.received_bytes,
            status=result.response.status,
            report=report,
        )


def vulnerable_combinations() -> List[Tuple[str, str]]:
    """The 11 FCDN × BCDN combinations of Table V (self-cascading
    excluded)."""
    return [
        (fcdn, bcdn)
        for fcdn in OBR_FRONTENDS
        for bcdn in OBR_BACKENDS
        if fcdn != bcdn
    ]


def obr_grid(
    combinations: Optional[List[Tuple[str, str]]] = None,
    resource_size: int = 1024,
) -> "ExperimentGrid":
    """Table V's cascade sweep as an :class:`~repro.runner.grid.ExperimentGrid`;
    every cell searches its max n (the Table V methodology)."""
    from repro.families.obr import grid_cell
    from repro.runner.grid import ExperimentGrid

    combos = list(combinations) if combinations is not None else vulnerable_combinations()
    return ExperimentGrid(
        "table5-obr",
        [grid_cell(fcdn, bcdn, resource_size=resource_size) for fcdn, bcdn in combos],
    )
