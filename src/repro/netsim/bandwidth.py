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
index)`` and are admitted when their start time comes, and the live set
is kept in insertion order and loses a transfer as soon as it finishes.
The max-min allocation is a pure function of that ordered live set, so
it is computed once and reused until an admission or a finish changes
the set.  Samples are kept as columns (one tick-time list, and per link
a throughput list and an active-count list); :class:`LinkSample`
objects are built only when :meth:`FluidSimulator.samples_for` asks.

A :class:`Transfer` with ``flows=k`` is a cohort: k identical flows at
one insertion position, standing for k transfers added one after
another with the same size, path and start time.  Such flows are
consecutive in the live set and move in lockstep, so the cohort ticks
as one entry.  Wherever the k flows would each touch a float sum — a
link's remaining capacity during progressive filling, a link's bytes
moved in a tick — the cohort repeats that operation k times in a row
instead of multiplying by k, which keeps every float exactly what k
separate transfers produce.

Most ticks of a flood repeat the tick before them: nothing is admitted,
nothing finishes, and every flow moves its ``rate * dt`` again.  After
each computed tick the simulator therefore *replays* the following
ticks for as long as no pending transfer is due, the live set (and so
its allocation) is unchanged, every live flow has more than
``rate * dt`` left, and the horizon allows another tick.  A replayed
tick appends the previous tick's per-link throughput and count,
subtracts ``rate * dt`` from each flow's ``remaining`` once (repeated
subtraction, never a multiplication by the tick count) and advances the
clock by ``now + dt``, so every float it leaves behind is the one the
computed tick would have produced.  Of the 6000 ticks of Fig 7's
m = 1..15 sweep, 4356 are replayed.
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
    """``flows`` identical flows of ``size_bytes`` each across an
    ordered set of links; ``remaining`` and ``finish_time`` are each
    flow's."""

    size_bytes: float
    links: Sequence[str]
    start_time: float = 0.0
    label: str = ""
    flows: int = 1
    remaining: float = field(init=False)
    finish_time: Optional[float] = field(init=False, default=None)

    def __post_init__(self) -> None:
        if isinstance(self.flows, bool) or not isinstance(self.flows, int) or self.flows < 1:
            raise SimulationError(f"flows must be an int >= 1, got {self.flows!r}")
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
    2. take each live transfer's rate from the max-min fair allocation
       over its links (progressive filling), recomputed only when the
       live set changed since the last one;
    3. advance every live transfer by ``rate * dt``, drop the finished
       ones and record per-link throughput.

    The ticks after it that would repeat it are replayed instead (see
    the module docstring).
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
        #: The live set's allocation by position; None once the set changes.
        self._rates: Optional[Dict[int, float]] = None
        self._allocations = 0
        #: Sample columns: each tick's start time, and per link each
        #: tick's throughput (bps) and active flow count.
        self._times: List[float] = []
        self._throughput: Dict[str, List[float]] = {name: [] for name in self._links}
        self._active: Dict[str, List[int]] = {name: [] for name in self._links}
        self._now = 0.0

    # -- setup ----------------------------------------------------------------

    def add_transfer(
        self,
        size_bytes: float,
        links: Sequence[str],
        start_time: float = 0.0,
        label: str = "",
        flows: int = 1,
    ) -> Transfer:
        """Schedule a transfer of ``flows`` identical flows; unknown link
        names, non-finite sizes or start times and a ``flows`` that is
        not an int >= 1 raise immediately."""
        for name in links:
            self._require_link(name)
        transfer = Transfer(
            size_bytes=size_bytes,
            links=tuple(links),
            start_time=start_time,
            label=label,
            flows=flows,
        )
        heapq.heappush(self._pending, (start_time, len(self._transfers), transfer))
        self._transfers.append(transfer)
        return transfer

    @property
    def transfers(self) -> List[Transfer]:
        return list(self._transfers)

    # -- execution --------------------------------------------------------------

    def run(self, until: float) -> None:
        """Advance the simulation to time ``until``; read the samples
        with :meth:`samples_for` or the column accessors."""
        _require_finite("run horizon", until)
        if until < self._now:
            raise SimulationError(f"cannot run backwards from {self._now} to {until}")
        with current_tracer().span("net.fluid") as span:
            ticks = replayed = peak_active = 0
            allocations_before = self._allocations
            limit = until + 1e-9
            while self._now + self.dt <= limit:
                peak_active = max(peak_active, self._tick())
                ticks += 1
                replayed += self._replay(limit)
            if span.recording:
                span.set(
                    ticks=ticks + replayed,
                    replayed=replayed,
                    transfers=sum(t.flows for t in self._transfers),
                    peak_active=peak_active,
                    allocations=self._allocations - allocations_before,
                )

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
            self._rates = None

    def _tick(self) -> int:
        """One tick; returns how many flows were live in it."""
        self._admit()
        now, dt = self._now, self.dt
        live = self._live
        rates = self._rates
        if rates is None:
            rates = self._rates = self._max_min_rates([transfer for _, transfer in live])
            self._allocations += 1
        moved_per_link = dict.fromkeys(self._links, 0.0)
        counts_per_link = dict.fromkeys(self._links, 0)
        finished = False
        flows = 0
        for position, (_, transfer) in enumerate(live):
            moved = min(transfer.remaining, rates[position] * dt)
            transfer.remaining -= moved
            if transfer.remaining <= 0:
                finished = True
                if transfer.finish_time is None:
                    transfer.finish_time = now + dt
            cohort = transfer.flows
            flows += cohort
            for name in transfer.links:
                total = moved_per_link[name]
                for _ in range(cohort):  # one add per flow, never ``* cohort``
                    total += moved
                moved_per_link[name] = total
                counts_per_link[name] += cohort
        if finished:
            self._live = [entry for entry in live if not entry[1].done]
            self._rates = None
        self._times.append(now)
        for name, moved in moved_per_link.items():
            self._throughput[name].append(moved * 8.0 / dt)
            self._active[name].append(counts_per_link[name])
        self._now = now + dt
        return flows

    def _replay(self, limit: float) -> int:
        """Repeat the tick just computed while it would compute the same
        samples again; returns how many ticks were replayed.

        Each replayed tick subtracts the same ``rate * dt`` the computed
        tick moved, once per tick, and advances the clock by ``+ dt``.
        """
        rates = self._rates
        if rates is None:  # the live set changed in the tick just computed
            return 0
        dt = self.dt
        steps = [
            (transfer, rates[position] * dt)
            for position, (_, transfer) in enumerate(self._live)
        ]
        next_start = self._pending[0][0] if self._pending else math.inf
        columns = [
            (series, series[-1])
            for series in (*self._throughput.values(), *self._active.values())
        ]
        times = self._times
        now = self._now
        replayed = 0
        steady = all(transfer.remaining > step for transfer, step in steps)
        while steady and now + dt <= limit and now < next_start:
            for transfer, step in steps:
                left = transfer.remaining - step
                transfer.remaining = left
                if left <= step:  # the next tick would move less, or finish it
                    steady = False
            times.append(now)
            for series, value in columns:
                series.append(value)
            now += dt
            replayed += 1
        self._now = now
        return replayed

    def _max_min_rates(self, active: Sequence[Transfer]) -> Dict[int, float]:
        """Progressive-filling max-min fair allocation (bytes/sec per flow).

        Keyed by position in ``active`` — not ``id()`` — so the rate map
        is a pure function of the transfer list and two identical runs
        allocate identically.  A cohort counts as ``flows`` users of each
        of its links and draws its increment from them once per flow.
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
                transfer = active[index]
                for name in transfer._distinct_links:
                    users[name] += transfer.flows
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
                transfer = active[index]
                for name in transfer.links:
                    capacity = remaining_capacity[name]
                    for _ in range(transfer.flows):
                        capacity -= increment
                    remaining_capacity[name] = capacity
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

    @property
    def tick_times(self) -> List[float]:
        """Every tick's start time, in order; the time column of every link."""
        return list(self._times)

    def samples_for(self, link: str) -> List[LinkSample]:
        """Every sample taken on ``link``, in time order."""
        self._require_link(link)
        return [
            LinkSample(
                time=time, link=link, throughput_bps=throughput, active_transfers=active
            )
            for time, throughput, active in zip(
                self._times, self._throughput[link], self._active[link]
            )
        ]

    def throughput_series(self, link: str) -> List[float]:
        """Per-tick throughput (bps) for ``link``, in time order."""
        self._require_link(link)
        return list(self._throughput[link])

    def mean_throughput_bps(self, link: str, start: float = 0.0, end: float = float("inf")) -> float:
        """Average throughput on ``link`` over the window ``[start, end)``."""
        self._require_link(link)
        window = [
            throughput
            for time, throughput in zip(self._times, self._throughput[link])
            if start <= time < end
        ]
        if not window:
            return 0.0
        return sum(window) / len(window)
