"""Fluid-flow bandwidth simulation for the practicability experiment.

The paper's fourth experiment sends ``m`` SBR requests per second for 30
seconds and watches the origin's 1000 Mbps uplink saturate (Fig 7).  We
reproduce it with a classic fluid-flow model: transfers are continuous
flows over capacity-limited links, progressing each tick at their
max-min fair share, with excess demand naturally queueing as unfinished
transfers that spill into later ticks.

The model is deliberately simple — no packets, no TCP dynamics — because
the figure's shape (linear growth in ``m`` until the uplink pins at its
capacity) is a pure capacity/queueing phenomenon.

A tick costs O(live transfers), not O(transfers ever scheduled):
pending transfers wait in a heap keyed on ``(start_time, insertion
index)`` and are admitted when their start time comes, the live set is
kept in insertion order and loses a transfer as soon as it finishes,
and samples are filed per link as they are taken.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import SimulationError
from repro.obs.tracer import current_tracer


def _require_finite(what: str, value: float) -> None:
    if not math.isfinite(value):
        raise SimulationError(f"{what} must be finite, got {value}")


@dataclass
class Link:
    """A unidirectional link with a fixed capacity in bits per second."""

    name: str
    capacity_bps: float

    def __post_init__(self) -> None:
        _require_finite(f"link {self.name!r} capacity", self.capacity_bps)
        if self.capacity_bps <= 0:
            raise SimulationError(
                f"link {self.name!r} capacity must be positive, got {self.capacity_bps}"
            )

    @property
    def capacity_bytes_per_sec(self) -> float:
        return self.capacity_bps / 8.0


@dataclass
class Transfer:
    """A flow of ``size_bytes`` across an ordered set of links."""

    size_bytes: float
    links: Sequence[str]
    start_time: float = 0.0
    label: str = ""
    remaining: float = field(init=False)
    finish_time: Optional[float] = field(init=False, default=None)

    def __post_init__(self) -> None:
        _require_finite("transfer size", self.size_bytes)
        _require_finite("transfer start time", self.start_time)
        if self.size_bytes < 0:
            raise SimulationError(f"transfer size must be >= 0, got {self.size_bytes}")
        if not self.links:
            raise SimulationError("a transfer must traverse at least one link")
        self.remaining = float(self.size_bytes)
        # Each link once, for counting a link's users; ``links`` itself
        # may repeat a link, and then the transfer loads it twice.
        self._distinct_links = tuple(dict.fromkeys(self.links))

    @property
    def done(self) -> bool:
        return self.remaining <= 0


@dataclass(frozen=True)
class LinkSample:
    """Throughput observed on one link during one tick."""

    time: float
    link: str
    throughput_bps: float
    active_transfers: int


class FluidSimulator:
    """Tick-based max-min fair-share fluid simulator.

    Each tick of length ``dt``:

    1. admit the pending transfers whose start time has come (the live
       set stays in insertion order);
    2. compute each live transfer's rate as the max-min fair allocation
       over its links (progressive filling);
    3. advance every live transfer by ``rate * dt``, drop the finished
       ones and sample per-link throughput.
    """

    def __init__(self, links: Sequence[Link], dt: float = 0.1) -> None:
        _require_finite("dt", dt)
        if dt <= 0:
            raise SimulationError(f"dt must be positive, got {dt}")
        self.dt = dt
        self._links: Dict[str, Link] = {}
        for link in links:
            if link.name in self._links:
                raise SimulationError(f"duplicate link name {link.name!r}")
            self._links[link.name] = link
        self._transfers: List[Transfer] = []
        #: Not yet admitted: ``(start_time, insertion index, transfer)``.
        self._pending: List[Tuple[float, int, Transfer]] = []
        #: Admitted and unfinished: ``(insertion index, transfer)``, sorted.
        self._live: List[Tuple[int, Transfer]] = []
        self._samples: List[LinkSample] = []
        self._link_samples: Dict[str, List[LinkSample]] = {
            name: [] for name in self._links
        }
        self._now = 0.0

    # -- setup ----------------------------------------------------------------

    def add_transfer(
        self,
        size_bytes: float,
        links: Sequence[str],
        start_time: float = 0.0,
        label: str = "",
    ) -> Transfer:
        """Schedule a transfer; unknown link names and non-finite sizes
        or start times raise immediately."""
        for name in links:
            self._require_link(name)
        transfer = Transfer(
            size_bytes=size_bytes, links=tuple(links), start_time=start_time, label=label
        )
        heapq.heappush(self._pending, (start_time, len(self._transfers), transfer))
        self._transfers.append(transfer)
        return transfer

    @property
    def transfers(self) -> List[Transfer]:
        return list(self._transfers)

    # -- execution --------------------------------------------------------------

    def run(self, until: float) -> List[LinkSample]:
        """Advance the simulation to time ``until``; returns all samples."""
        _require_finite("run horizon", until)
        if until < self._now:
            raise SimulationError(f"cannot run backwards from {self._now} to {until}")
        with current_tracer().span("net.fluid") as span:
            ticks = peak_active = 0
            while self._now + self.dt <= until + 1e-9:
                peak_active = max(peak_active, self._tick())
                ticks += 1
            if span.recording:
                span.set(
                    ticks=ticks,
                    transfers=len(self._transfers),
                    peak_active=peak_active,
                )
        return list(self._samples)

    def _admit(self) -> None:
        """Move every pending transfer whose start time has come into
        the live set, keeping the live set in insertion order."""
        pending = self._pending
        admitted: List[Tuple[int, Transfer]] = []
        while pending and pending[0][0] <= self._now:
            _, index, transfer = heapq.heappop(pending)
            if not transfer.done:
                admitted.append((index, transfer))
        if admitted:
            self._live.extend(admitted)
            self._live.sort()

    def _tick(self) -> int:
        """One tick; returns how many transfers were live in it."""
        self._admit()
        now, dt = self._now, self.dt
        active = [transfer for _, transfer in self._live]
        rates = self._max_min_rates(active)
        moved_per_link: Dict[str, float] = {name: 0.0 for name in self._links}
        counts_per_link: Dict[str, int] = {name: 0 for name in self._links}
        finished = False
        for index, transfer in enumerate(active):
            moved = min(transfer.remaining, rates[index] * dt)
            transfer.remaining -= moved
            if transfer.remaining <= 0:
                finished = True
                if transfer.finish_time is None:
                    transfer.finish_time = now + dt
            for name in transfer.links:
                moved_per_link[name] += moved
                counts_per_link[name] += 1
        if finished:
            self._live = [entry for entry in self._live if not entry[1].done]
        for name, series in self._link_samples.items():
            sample = LinkSample(
                time=now,
                link=name,
                throughput_bps=moved_per_link[name] * 8.0 / dt,
                active_transfers=counts_per_link[name],
            )
            self._samples.append(sample)
            series.append(sample)
        self._now = now + dt
        return len(active)

    def _max_min_rates(self, active: Sequence[Transfer]) -> Dict[int, float]:
        """Progressive-filling max-min fair allocation (bytes/sec).

        Keyed by position in ``active`` — not ``id()`` — so the rate map
        is a pure function of the transfer list and two identical runs
        allocate identically.
        """
        rates: Dict[int, float] = {index: 0.0 for index in range(len(active))}
        unfrozen = list(range(len(active)))
        remaining_capacity = {
            name: link.capacity_bytes_per_sec for name, link in self._links.items()
        }
        while unfrozen:
            # Most constrained link determines the next rate increment.
            users = dict.fromkeys(remaining_capacity, 0)
            for index in unfrozen:
                for name in active[index]._distinct_links:
                    users[name] += 1
            increments = [
                (capacity / users[name], name)
                for name, capacity in remaining_capacity.items()
                if users[name]
            ]
            if not increments:
                break
            increment, bottleneck = min(increments)
            for index in unfrozen:
                rates[index] += increment
                for name in active[index].links:
                    remaining_capacity[name] -= increment
            # Freeze every transfer crossing the saturated bottleneck.
            unfrozen = [
                index for index in unfrozen if bottleneck not in active[index].links
            ]
            remaining_capacity = {
                name: max(0.0, cap) for name, cap in remaining_capacity.items()
            }
        return rates

    # -- inspection ---------------------------------------------------------------

    @property
    def now(self) -> float:
        return self._now

    def _require_link(self, name: str) -> None:
        if name not in self._links:
            raise SimulationError(f"unknown link {name!r}")

    def samples_for(self, link: str) -> List[LinkSample]:
        """Every sample taken on ``link``, in time order."""
        self._require_link(link)
        return list(self._link_samples[link])

    def throughput_series(self, link: str) -> List[float]:
        """Per-tick throughput (bps) for ``link``, in time order."""
        return [s.throughput_bps for s in self.samples_for(link)]

    def mean_throughput_bps(self, link: str, start: float = 0.0, end: float = float("inf")) -> float:
        """Average throughput on ``link`` over the window ``[start, end)``."""
        window = [s for s in self.samples_for(link) if start <= s.time < end]
        if not window:
            return 0.0
        return sum(s.throughput_bps for s in window) / len(window)
