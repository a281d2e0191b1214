"""Attack economics (paper §V-E, "a great monetary loss to the victims").

Most CDNs bill their customers by delivered traffic, so a RangeAmp
attacker does not just degrade a website — they run up its CDN bill and
its origin's egress bill.  This module turns attack measurements into
cost and time-to-exhaustion estimates:

* per-vendor **billing rates** (representative published per-GB prices
  from the paper's pricing references [17]–[21]; first-TB tiers, USD);
* :func:`estimate_sbr_campaign` — victim cost and origin-uplink
  saturation for a sustained SBR campaign;
* :func:`estimate_obr_campaign` — inter-CDN traffic burned per request
  stream for an OBR campaign.

All estimates derive from *measured* per-request traffic (a fresh attack
run), not hardcoded constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.obr import ObrAttack
from repro.core.sbr import SbrAttack

GB = 10 ** 9
MB = 1 << 20

#: Representative published traffic prices (USD per GB, first tier).
#: Shapes the cost estimates; override per call for current prices.
BILLING_USD_PER_GB = {
    "akamai": 0.085,
    "alibaba": 0.074,
    "azure": 0.087,
    "cdn77": 0.049,
    "cdnsun": 0.045,
    "cloudflare": 0.0,      # flat-rate plans: no per-GB metering
    "cloudfront": 0.085,
    "fastly": 0.12,
    "gcore": 0.08,
    "huawei": 0.077,
    "keycdn": 0.04,
    "stackpath": 0.0,       # flat-rate plans
    "tencent": 0.07,
}


@dataclass(frozen=True)
class CampaignEstimate:
    """Projected totals for a sustained attack campaign."""

    vendor: str
    attack: str
    requests_per_second: float
    duration_seconds: float
    #: Measured wire bytes one attack round moves on the victim segment.
    victim_bytes_per_request: int
    #: Measured wire bytes one attack round costs the attacker.
    attacker_bytes_per_request: int
    #: USD per GB used for the cost projection.
    rate_usd_per_gb: float

    @property
    def total_requests(self) -> float:
        return self.requests_per_second * self.duration_seconds

    @property
    def victim_bytes(self) -> float:
        return self.total_requests * self.victim_bytes_per_request

    @property
    def attacker_bytes(self) -> float:
        return self.total_requests * self.attacker_bytes_per_request

    @property
    def victim_cost_usd(self) -> float:
        """Traffic bill the victim accrues over the campaign."""
        return self.victim_bytes / GB * self.rate_usd_per_gb

    @property
    def victim_bandwidth_mbps(self) -> float:
        """Sustained victim-side bandwidth the campaign demands."""
        return self.requests_per_second * self.victim_bytes_per_request * 8 / 1e6

    @property
    def attacker_bandwidth_mbps(self) -> float:
        return self.requests_per_second * self.attacker_bytes_per_request * 8 / 1e6

    def saturating_rate(self, uplink_mbps: float) -> float:
        """Requests/second needed to pin a victim uplink of
        ``uplink_mbps`` (paper §V-D found ~12-14 req/s for 1000 Mbps
        with a 10 MB resource)."""
        per_request_mbit = self.victim_bytes_per_request * 8 / 1e6
        return uplink_mbps / per_request_mbit


def estimate_sbr_campaign(
    vendor: str,
    resource_size: int = 10 * MB,
    requests_per_second: float = 10.0,
    duration_seconds: float = 3600.0,
    rate_usd_per_gb: Optional[float] = None,
) -> CampaignEstimate:
    """Project a sustained SBR campaign from one measured round.

    The victim segment is cdn-origin (the origin's outgoing traffic —
    and, on traffic-billed CDNs, the customer's bill).
    """
    measured = SbrAttack(vendor, resource_size=resource_size).run()
    rate = (
        rate_usd_per_gb
        if rate_usd_per_gb is not None
        else BILLING_USD_PER_GB.get(vendor, 0.08)
    )
    return CampaignEstimate(
        vendor=vendor,
        attack="sbr",
        requests_per_second=requests_per_second,
        duration_seconds=duration_seconds,
        victim_bytes_per_request=measured.origin_traffic,
        attacker_bytes_per_request=measured.client_traffic,
        rate_usd_per_gb=rate,
    )


def estimate_obr_campaign(
    fcdn: str,
    bcdn: str,
    overlap_count: Optional[int] = None,
    requests_per_second: float = 10.0,
    duration_seconds: float = 3600.0,
) -> CampaignEstimate:
    """Project a sustained OBR campaign from one measured request,
    billed at the back CDN's rate.

    The victim segment is fcdn-bcdn; the attacker aborts early, so the
    attacker-side cost is the capped client delivery.
    """
    measured = ObrAttack(fcdn, bcdn).run(overlap_count=overlap_count)
    rate = BILLING_USD_PER_GB.get(bcdn, 0.08)
    return CampaignEstimate(
        vendor=f"{fcdn}->{bcdn}",
        attack="obr",
        requests_per_second=requests_per_second,
        duration_seconds=duration_seconds,
        victim_bytes_per_request=measured.fcdn_bcdn_traffic,
        attacker_bytes_per_request=measured.client_traffic,
        rate_usd_per_gb=rate,
    )
