"""The paper's fourth experiment: sustained SBR floods (Fig 7).

The setup: an origin with a 1000 Mbps uplink serving a 10 MB resource
through a vulnerable CDN; the attacker sends ``m`` concurrent SBR
requests every second for 30 seconds.  Fig 7a shows the client's
incoming bandwidth staying under 500 Kbps regardless of ``m``; Fig 7b
shows the origin's outgoing bandwidth growing almost proportionally to
``m`` until the uplink pins at its capacity (around ``m ≈ 11–14``).

We reproduce it in two steps:

1. measure the per-request traffic of one SBR round against the chosen
   vendor (wire-exact, from :class:`~repro.core.sbr.SbrAttack`);
2. drive a fluid-flow bandwidth simulation in which each attack request
   becomes one origin-uplink transfer of that size (and one tiny
   client-downlink transfer), sampling per-second throughput.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.core.sbr import SbrAttack

if TYPE_CHECKING:
    from repro.runner.grid import ExperimentGrid
from repro.netsim.bandwidth import FluidSimulator, Link

MB = 1 << 20

ORIGIN_LINK = "origin-uplink"
CLIENT_LINK = "client-downlink"


@dataclass(frozen=True)
class BandwidthRunResult:
    """Per-second bandwidth series for one value of ``m``."""

    m: int
    duration_s: float
    origin_capacity_mbps: float
    #: Origin outgoing throughput, one sample per second (Mbps).
    origin_mbps: Tuple[float, ...]
    #: Client incoming throughput, one sample per second (Kbps).
    client_kbps: Tuple[float, ...]
    #: Wire bytes one attack request pulls out of the origin.
    origin_bytes_per_request: int
    #: Wire bytes one attack request delivers to the client.
    client_bytes_per_request: int

    @property
    def steady_origin_mbps(self) -> float:
        """Mean origin throughput over the steady window (seconds 5–30)."""
        window = [
            sample
            for second, sample in enumerate(self.origin_mbps)
            if 5 <= second < min(30, len(self.origin_mbps))
        ]
        if not window:
            return 0.0
        return sum(window) / len(window)

    @property
    def peak_client_kbps(self) -> float:
        return max(self.client_kbps) if self.client_kbps else 0.0

    @property
    def saturated(self) -> bool:
        """True when the origin uplink is pinned at capacity."""
        return self.steady_origin_mbps >= 0.97 * self.origin_capacity_mbps


class BandwidthAttackSimulation:
    """Fig 7's experiment harness."""

    def __init__(
        self,
        vendor: str = "cloudflare",
        resource_size: int = 10 * MB,
        origin_uplink_mbps: float = 1000.0,
        client_downlink_mbps: float = 100.0,
        duration_s: float = 30.0,
        drain_s: float = 10.0,
        dt: float = 0.1,
        per_request: Optional[Tuple[int, int]] = None,
    ) -> None:
        self.vendor = vendor
        self.resource_size = resource_size
        self.origin_uplink_mbps = origin_uplink_mbps
        self.client_downlink_mbps = client_downlink_mbps
        self.duration_s = duration_s
        self.drain_s = drain_s
        self.dt = dt
        # ``per_request`` pins the step-1 probe result so a caller that
        # already measured (origin_bytes, client_bytes) — e.g. the
        # parallel runner sharing one probe across all 15 Fig 7 cells —
        # skips the redundant SBR run.
        self._per_request: Optional[Tuple[int, int]] = (
            tuple(per_request) if per_request is not None else None  # type: ignore[assignment]
        )

    # -- step 1: wire-exact per-request traffic ----------------------------------

    def per_request_traffic(self) -> Tuple[int, int]:
        """(origin_bytes, client_bytes) one attack round moves."""
        if self._per_request is None:
            result = SbrAttack(self.vendor, resource_size=self.resource_size).run()
            self._per_request = (result.origin_traffic, result.client_traffic)
        return self._per_request

    # -- step 2: fluid simulation ----------------------------------------------------

    def run(self, m: int) -> BandwidthRunResult:
        """Simulate ``m`` attack requests per second for the configured
        duration; returns per-second bandwidth series."""
        if m < 0:
            raise ValueError(f"m must be >= 0, got {m}")
        origin_bytes, client_bytes = self.per_request_traffic()
        simulator = FluidSimulator(
            [
                Link(ORIGIN_LINK, self.origin_uplink_mbps * 1e6),
                Link(CLIENT_LINK, self.client_downlink_mbps * 1e6),
            ],
            dt=self.dt,
        )
        for second in range(int(self.duration_s)):
            for index in range(m):
                simulator.add_transfer(
                    origin_bytes, [ORIGIN_LINK], start_time=float(second),
                    label=f"origin:{second}:{index}",
                )
                simulator.add_transfer(
                    client_bytes, [CLIENT_LINK], start_time=float(second),
                    label=f"client:{second}:{index}",
                )
        total = self.duration_s + self.drain_s
        simulator.run(total)
        origin_series = self._per_second_bps(simulator, ORIGIN_LINK, total)
        client_series = self._per_second_bps(simulator, CLIENT_LINK, total)
        return BandwidthRunResult(
            m=m,
            duration_s=self.duration_s,
            origin_capacity_mbps=self.origin_uplink_mbps,
            origin_mbps=tuple(bps / 1e6 for bps in origin_series),
            client_kbps=tuple(bps / 1e3 for bps in client_series),
            origin_bytes_per_request=origin_bytes,
            client_bytes_per_request=client_bytes,
        )

    def _per_second_bps(
        self, simulator: FluidSimulator, link: str, total: float
    ) -> List[float]:
        """Mean throughput of each whole second ``[s, s + 1)`` of ``link``.

        One pass files each tick into the second its start time falls
        in; every window is then averaged in time order, exactly as
        :meth:`FluidSimulator.mean_throughput_bps` would.
        """
        windows: List[List[float]] = [[] for _ in range(int(total))]
        for sample in simulator.samples_for(link):
            second = math.floor(sample.time)
            if 0 <= second < len(windows):
                windows[second].append(sample.throughput_bps)
        return [sum(window) / len(window) if window else 0.0 for window in windows]

    def sweep(self, ms: Sequence[int] = tuple(range(1, 16))) -> List[BandwidthRunResult]:
        """Fig 7's full sweep, ``m`` from 1 to 15 by default."""
        return [self.run(m) for m in ms]

    def saturation_threshold(self, ms: Sequence[int] = tuple(range(1, 16))) -> Optional[int]:
        """Smallest ``m`` whose steady-state throughput pins the uplink;
        the sweep stops at the first saturated ``m``."""
        for m in ms:
            if self.run(m).saturated:
                return m
        return None


def flood_grid(
    ms: Sequence[int] = tuple(range(1, 16)),
    vendor: str = "cloudflare",
    resource_size: int = 10 * MB,
    origin_uplink_mbps: float = 1000.0,
    per_request: Optional[Tuple[int, int]] = None,
) -> "ExperimentGrid":
    """Fig 7's sweep as an :class:`~repro.runner.grid.ExperimentGrid`.

    ``per_request=None`` measures the per-request SBR traffic once here
    (memoized) and shares it with every cell, so the parallel sweep does
    not run the probe 15 times.
    """
    from repro.runner.experiments import flood_cell
    from repro.runner.grid import ExperimentGrid
    from repro.runner.memo import sbr_per_request_traffic

    if per_request is None:
        per_request = sbr_per_request_traffic(vendor, resource_size)
    return ExperimentGrid(
        "fig7-flood",
        [
            flood_cell(
                vendor,
                m,
                resource_size=resource_size,
                origin_uplink_mbps=origin_uplink_mbps,
                per_request=per_request,
            )
            for m in ms
        ],
    )
