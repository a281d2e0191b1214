"""The prior-art connection-drop attack, for comparison (paper §VIII).

Triukose, Al-Qudah & Rabinovich (ESORICS 2009) showed a client could
exhaust an origin's bandwidth by requesting a large resource through a
CDN and immediately dropping the front-end connection: the CDN's
back-end fetch would continue and complete.  The RangeAmp paper
re-evaluated this attack and found that **most CDNs now defend against
it** — they break the back-to-origin connection when the client
connection is abnormally cut — but that this defense is useless against
RangeAmp: an SBR request *completes normally* (the attacker receives its
one byte), so there is no abort to react to.

This module reproduces that comparison.  Timing is outside the
synchronous simulator, so the abort race is modeled explicitly: when the
vendor breaks its back-end on client abort, the origin only ships the
bytes already in flight (``inflight_bytes``, default 64 KB of TCP
buffers); when the vendor maintains the back-end (CDN77, CDNsun per
§IV-C), the full resource is shipped.  The comparison function then runs
the SBR attack against the *same* vendor to show the defense being
bypassed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cdn.vendors import create_profile
from repro.core.deployment import CdnSpec, Deployment
from repro.core.sbr import SbrAttack
from repro.netsim.tap import CDN_ORIGIN
from repro.origin.server import OriginServer

MB = 1 << 20

#: Bytes assumed already committed to the wire when the CDN reacts to
#: the client abort (TCP buffers + reaction delay).
DEFAULT_INFLIGHT_BYTES = 64 * 1024

#: Where the origin hosts the large resource the client drops.
TARGET_PATH = "/target.bin"


@dataclass(frozen=True)
class ConnectionDropResult:
    """Outcome of one connection-drop attack round."""

    vendor: str
    resource_size: int
    #: Whether this vendor keeps the back-end fetch alive on client abort.
    backend_maintained: bool
    #: Response bytes the client paid for before aborting.
    client_traffic: int
    #: Response bytes the origin actually shipped.
    origin_traffic: int

    @property
    def amplification(self) -> float:
        if self.client_traffic <= 0:
            return 0.0
        return self.origin_traffic / self.client_traffic

    @property
    def defended(self) -> bool:
        """True when the CDN's abort defense capped the origin traffic."""
        return self.origin_traffic < self.resource_size


class ConnectionDropAttack:
    """Run the ESORICS'09 connection-drop attack against one vendor."""

    def __init__(
        self,
        vendor: str,
        resource_size: int = 10 * MB,
        abort_after: int = 1500,
        inflight_bytes: int = DEFAULT_INFLIGHT_BYTES,
    ) -> None:
        self.vendor = vendor
        self.resource_size = resource_size
        self.abort_after = abort_after
        self.inflight_bytes = inflight_bytes

    def run(self) -> ConnectionDropResult:
        profile = create_profile(self.vendor)
        origin = OriginServer()
        origin.add_synthetic_resource(TARGET_PATH, self.resource_size)
        deployment = Deployment.single(CdnSpec(profile=profile), origin)
        client = deployment.client()

        # Plain GET of the large resource, client connection dropped
        # almost immediately.
        result = client.get(f"{TARGET_PATH}?cb=0", abort_after=self.abort_after)
        raw_origin = deployment.response_traffic(CDN_ORIGIN)

        if profile.maintains_backend_on_client_abort:
            origin_traffic = raw_origin
        else:
            # The CDN noticed the abort and broke the back-end fetch:
            # only headers plus in-flight payload crossed the wire.
            header_overhead = min(raw_origin, 1024)
            origin_traffic = min(raw_origin, header_overhead + self.inflight_bytes)

        return ConnectionDropResult(
            vendor=self.vendor,
            resource_size=self.resource_size,
            backend_maintained=profile.maintains_backend_on_client_abort,
            client_traffic=result.received_bytes,
            origin_traffic=origin_traffic,
        )


@dataclass(frozen=True)
class DefenseComparison:
    """Connection-drop vs SBR against the same vendor (the §VIII point)."""

    vendor: str
    connection_drop: ConnectionDropResult
    sbr_amplification: float

    @property
    def defense_bypassed(self) -> bool:
        """True when the abort defense works but SBR still amplifies —
        the paper's argument that RangeAmp nullifies the old defense."""
        return self.connection_drop.defended and self.sbr_amplification > 100


def compare_with_sbr(
    vendor: str, resource_size: int = 10 * MB
) -> DefenseComparison:
    """Run both attacks against ``vendor`` and package the comparison."""
    drop = ConnectionDropAttack(vendor, resource_size=resource_size).run()
    sbr = SbrAttack(vendor, resource_size=resource_size).run()
    return DefenseComparison(
        vendor=vendor,
        connection_drop=drop,
        sbr_amplification=sbr.amplification,
    )
