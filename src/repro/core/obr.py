"""The Overlapping Byte Ranges (OBR) attack (paper §IV-C, §V-C).

Two CDNs are cascaded: the attacker configures the front CDN's origin to
be an ingress node of the back CDN, and the back CDN's origin to be a
server where range support is disabled.  A multi-range request with
``n`` overlapping ``0-`` ranges is forwarded *unchanged* by the FCDN
(Laziness); the BCDN fetches the 200 full-body response from the origin
and expands it into an ``n``-part ``multipart/byteranges`` response — up
to ``n`` times the resource size on the fcdn–bcdn link.

``n`` is bounded by the header limits of both CDNs on the path.  Each
limit is linear in ``n``, so :func:`declared_max_n` solves the cascade's
cap from the declared limits, and :meth:`ObrAttack.find_max_n` certifies
it the way the paper measured it — by probing that ``n`` survives
end-to-end and ``n + 1`` does not (:func:`largest_admitted`).

Traffic accounting uses a TCP/IP framing model by default: the paper's
Table V numbers come from packet captures of short connections, where
handshake and segment overhead are a visible fraction of the ~1.7 KB
bcdn–origin responses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

from repro.core.amplification import AmplificationReport
from repro.core.deployment import CdnSpec, Deployment
from repro.cdn.vendors import OBR_BACKENDS, OBR_FRONTENDS, create_profile
from repro.cdn.vendors.base import VendorConfig, VendorContext
from repro.errors import ConfigurationError
from repro.http.grammar import obr_value_size, overlapping_open_ranges_value
from repro.http.message import HttpRequest
from repro.http.ranges import try_parse_range_header
from repro.http.status import StatusCode
from repro.netsim.overhead import OverheadModel, TcpOverheadModel
from repro.netsim.tap import BCDN_ORIGIN, CLIENT_CDN, FCDN_BCDN
from repro.obs.tracer import current_tracer
from repro.origin.server import OriginServer

if TYPE_CHECKING:
    from repro.cdn.vendors.base import VendorProfile
    from repro.runner.grid import ExperimentGrid


def exploited_fcdn_config(fcdn: str) -> Optional[VendorConfig]:
    """The front-CDN configuration the Table V setup uses.

    Cloudflare forwards multi-range requests unchanged only when the
    target path is configured *Bypass* (Table II); every other front end
    runs its default configuration.
    """
    if fcdn == "cloudflare":
        return VendorConfig(bypass_cache=True)
    return None


def exploited_leading_spec(fcdn: str) -> Optional[str]:
    """Table V column 3: the first spec of the exploited multi-range.

    CDN77 deletes Range headers whose first range starts below byte 1024,
    so the attack leads with a suffix spec; CDNsun deletes when the first
    range is anchored at 0, so it leads with ``1-``.  Cloudflare and
    StackPath take plain ``0-``.
    """
    if fcdn == "cdn77":
        return "-1024"
    if fcdn == "cdnsun":
        return "1-"
    return None


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
        resource_path: str = "/1KB.bin",
        overhead: Optional[OverheadModel] = None,
        host: str = "victim.example",
        client_abort_after: Optional[int] = 2048,
        fcdn_profile_factory: Optional[Callable[[], "VendorProfile"]] = None,
        bcdn_profile_factory: Optional[Callable[[], "VendorProfile"]] = None,
    ) -> None:
        if fcdn == bcdn:
            raise ConfigurationError(
                "a CDN is not cascaded with itself (paper Table V excludes it)"
            )
        self.fcdn = fcdn
        self.bcdn = bcdn
        self.resource_size = resource_size
        self.resource_path = resource_path
        # Capture-like accounting by default; see module docstring.
        self.overhead = overhead if overhead is not None else TcpOverheadModel()
        self.host = host
        self.client_abort_after = client_abort_after
        # Mitigated-profile substitution on either side of the cascade
        # (fresh instance per deployment; profiles are stateful).
        self.fcdn_profile_factory = fcdn_profile_factory
        self.bcdn_profile_factory = bcdn_profile_factory

    # -- deployment -----------------------------------------------------------

    def build_deployment(self) -> Deployment:
        # The attacker disables range support on their origin so the BCDN
        # receives a full 200 and builds the multipart itself.
        origin = OriginServer(range_support=False)
        origin.add_synthetic_resource(self.resource_path, self.resource_size)
        if self.fcdn_profile_factory is not None:
            fcdn_spec = CdnSpec(
                profile=self.fcdn_profile_factory(),
                config=self._fcdn_config(),
            )
        else:
            fcdn_spec = CdnSpec(vendor=self.fcdn, config=self._fcdn_config())
        if self.bcdn_profile_factory is not None:
            bcdn_spec = CdnSpec(profile=self.bcdn_profile_factory())
        else:
            bcdn_spec = CdnSpec(vendor=self.bcdn)
        return Deployment.cascade(fcdn_spec, bcdn_spec, origin, overhead=self.overhead)

    def _fcdn_config(self) -> Optional[VendorConfig]:
        return exploited_fcdn_config(self.fcdn)

    def range_value(self, overlap_count: int) -> str:
        return overlapping_open_ranges_value(
            overlap_count, leading=exploited_leading_spec(self.fcdn)
        )

    # -- max-n search -----------------------------------------------------------

    def probe(self, overlap_count: int) -> int:
        """Send one attack request with ``overlap_count`` ranges against a
        fresh deployment; returns the client-side HTTP status."""
        deployment = self.build_deployment()
        client = deployment.client(host=self.host)
        result = client.get(
            self.resource_path,
            range_value=self.range_value(overlap_count),
            abort_after=self.client_abort_after,
        )
        return result.response.status

    def find_max_n(self, lower: int = 2, upper: int = 32768) -> int:
        """Largest ``n`` that survives both CDNs' header limits end-to-end.

        The cascade's declared limits give the answer by division
        (:func:`declared_max_n`); two probes against fresh deployments,
        at ``n`` and ``n + 1``, certify it the way an attacker (or the
        paper's authors) would observe the boundary.  Returns 0 when
        even ``lower`` is rejected.
        """
        guess = declared_max_n(
            self.fcdn,
            self.bcdn,
            self.resource_size,
            self.resource_path,
            self.host,
            self.fcdn_profile_factory,
            self.bcdn_profile_factory,
        )
        return largest_admitted(
            lambda n: self.probe(n) == StatusCode.PARTIAL_CONTENT, lower, upper, guess
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
        client = deployment.client(host=self.host)
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
                self.resource_path,
                range_value=range_value,
                abort_after=self.client_abort_after,
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


def exploited_request(
    fcdn: str, overlap_count: int, resource_path: str, host: str
) -> HttpRequest:
    """The attack request the client sends through ``fcdn``."""
    range_value = overlapping_open_ranges_value(
        overlap_count, leading=exploited_leading_spec(fcdn)
    )
    return HttpRequest(
        "GET", resource_path, headers=[("Host", host), ("Range", range_value)]
    )


def forwarded_verbatim(
    fcdn: str, front: "VendorProfile", request: HttpRequest, resource_size: int
) -> Optional[HttpRequest]:
    """The request ``front`` sends upstream when its decision table
    forwards the Range header unchanged (Laziness); ``None`` otherwise."""
    range_value = request.headers.get("Range")
    config = exploited_fcdn_config(fcdn)
    ctx = VendorContext(
        config=config if config is not None else front.effective_config(),
        resource_size_hint=resource_size,
    )
    decision = front.forward_decision(request, try_parse_range_header(range_value), ctx)
    if decision.forwarded_range != range_value:
        return None
    return front.build_upstream_request(request, decision)


def declared_max_n(
    fcdn: str,
    bcdn: str,
    resource_size: int,
    resource_path: str = "/1KB.bin",
    host: str = "victim.example",
    fcdn_profile: Optional[Callable[[], "VendorProfile"]] = None,
    bcdn_profile: Optional[Callable[[], "VendorProfile"]] = None,
) -> Optional[int]:
    """The largest ``n`` the cascade's declared header limits admit.

    The minimum of the front's :meth:`~repro.cdn.limits.HeaderLimits.range_cap`
    on the client request and — when the front forwards the exploited
    header verbatim — the back's ``range_cap`` on the upstream request
    and its reply-part cap.  0 when the front rewrites the header;
    ``None`` when no declared limit binds (only opaque guards, or none).
    Monotone probes still decide: :func:`largest_admitted` takes this as
    its first guess and certifies it.  ``fcdn_profile`` /
    ``bcdn_profile`` substitute wrapped (mitigated) profiles.
    """
    front = fcdn_profile() if fcdn_profile is not None else create_profile(fcdn)
    back = bcdn_profile() if bcdn_profile is not None else create_profile(bcdn)
    count = 2
    request = exploited_request(fcdn, count, resource_path, host)
    leading = exploited_leading_spec(fcdn)
    step = obr_value_size(count + 1, leading=leading) - obr_value_size(count, leading=leading)
    upstream = forwarded_verbatim(fcdn, front, request, resource_size)
    if upstream is None:
        return 0
    caps = [
        front.limits.range_cap(request, count, step),
        back.limits.range_cap(upstream, count, step),
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
    overlap_count: int = 0,
    name: str = "table5-obr",
) -> "ExperimentGrid":
    """Table V's cascade sweep as an :class:`~repro.runner.grid.ExperimentGrid`.

    ``overlap_count=0`` keeps the per-cell max-n search (the Table V
    methodology); a positive count pins n for every cell.
    """
    from repro.runner.experiments import obr_cell
    from repro.runner.grid import ExperimentGrid

    combos = list(combinations) if combinations is not None else vulnerable_combinations()
    return ExperimentGrid(
        name,
        [
            obr_cell(fcdn, bcdn, resource_size=resource_size, overlap_count=overlap_count)
            for fcdn, bcdn in combos
        ],
    )
