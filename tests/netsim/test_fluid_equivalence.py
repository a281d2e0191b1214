"""The fluid simulator's live-set tick against the all-transfers scan.

:class:`~repro.netsim.bandwidth.FluidSimulator` admits transfers from a
heap and ticks over the live set only.  The tick loop it replaced —
which asked every transfer ever scheduled whether it was active — is
kept here as the oracle, and every sample, every ``remaining`` and every
``finish_time`` must equal the oracle's float for float.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.practical import CLIENT_LINK, ORIGIN_LINK, BandwidthAttackSimulation
from repro.netsim.bandwidth import FluidSimulator, Link, LinkSample, Transfer
from repro.obs.tracer import Tracer, use_tracer
from repro.runner.memo import sbr_per_request_traffic

MB = 1 << 20


class ScanOracle:
    """The O(all transfers) tick loop this module's subject replaced."""

    def __init__(self, links: Sequence[Link], dt: float) -> None:
        self.dt = dt
        self._links: Dict[str, Link] = {link.name: link for link in links}
        self.transfers: List[Transfer] = []
        self.samples: List[LinkSample] = []
        self.now = 0.0

    def add_transfer(self, size_bytes, links, start_time=0.0, label=""):
        transfer = Transfer(
            size_bytes=size_bytes, links=tuple(links), start_time=start_time, label=label
        )
        self.transfers.append(transfer)
        return transfer

    def run(self, until: float) -> None:
        while self.now + self.dt <= until + 1e-9:
            self._tick()

    def _tick(self) -> None:
        active = [
            t for t in self.transfers if t.start_time <= self.now and not t.done
        ]
        rates = self._max_min_rates(active)
        moved_per_link = {name: 0.0 for name in self._links}
        counts_per_link = {name: 0 for name in self._links}
        for index, transfer in enumerate(active):
            rate = rates[index]
            moved = min(transfer.remaining, rate * self.dt)
            transfer.remaining -= moved
            if transfer.done and transfer.finish_time is None:
                transfer.finish_time = self.now + self.dt
            for name in transfer.links:
                moved_per_link[name] += moved
                counts_per_link[name] += 1
        for name in self._links:
            self.samples.append(
                LinkSample(
                    time=self.now,
                    link=name,
                    throughput_bps=moved_per_link[name] * 8.0 / self.dt,
                    active_transfers=counts_per_link[name],
                )
            )
        self.now += self.dt

    def _max_min_rates(self, active):
        rates = {index: 0.0 for index in range(len(active))}
        unfrozen = dict(enumerate(active))
        remaining_capacity = {
            name: link.capacity_bytes_per_sec for name, link in self._links.items()
        }
        while unfrozen:
            increments = []
            for name, capacity in remaining_capacity.items():
                users = [t for t in unfrozen.values() if name in t.links]
                if users:
                    increments.append((capacity / len(users), name))
            if not increments:
                break
            increment, bottleneck = min(increments)
            for index, transfer in unfrozen.items():
                rates[index] += increment
                for name in transfer.links:
                    remaining_capacity[name] -= increment
            for key, transfer in list(unfrozen.items()):
                if bottleneck in transfer.links:
                    del unfrozen[key]
            remaining_capacity = {
                name: max(0.0, cap) for name, cap in remaining_capacity.items()
            }
        return rates

    def mean_throughput_bps(self, link, start=0.0, end=float("inf")):
        window = [
            s for s in self.samples if s.link == link and start <= s.time < end
        ]
        if not window:
            return 0.0
        return sum(s.throughput_bps for s in window) / len(window)


def _hex(value):
    return None if value is None else float(value).hex()


def _sample_key(sample: LinkSample):
    return (
        _hex(sample.time),
        sample.link,
        _hex(sample.throughput_bps),
        sample.active_transfers,
    )


def assert_identical(subject: FluidSimulator, oracle: ScanOracle) -> None:
    """Every sample, ``remaining`` and ``finish_time`` equal bit for bit."""
    assert subject.now.hex() == oracle.now.hex()
    assert [_sample_key(s) for s in subject.run(subject.now)] == [
        _sample_key(s) for s in oracle.samples
    ]
    for name in oracle._links:
        assert [_sample_key(s) for s in subject.samples_for(name)] == [
            _sample_key(s) for s in oracle.samples if s.link == name
        ]
    assert [(_hex(t.remaining), _hex(t.finish_time)) for t in subject.transfers] == [
        (_hex(t.remaining), _hex(t.finish_time)) for t in oracle.transfers
    ]


# -- Fig 7 --------------------------------------------------------------------


@pytest.fixture(scope="module")
def per_request():
    return sbr_per_request_traffic("cloudflare", 10 * MB)


def _fig7_schedule(sim, m, origin_bytes, client_bytes):
    """The transfers BandwidthAttackSimulation.run(m) schedules."""
    for second in range(30):
        for index in range(m):
            sim.add_transfer(
                origin_bytes, [ORIGIN_LINK], start_time=float(second),
                label=f"origin:{second}:{index}",
            )
            sim.add_transfer(
                client_bytes, [CLIENT_LINK], start_time=float(second),
                label=f"client:{second}:{index}",
            )


@pytest.mark.parametrize("m", range(16))
def test_fig7_runs_identical_to_scan(per_request, m):
    links = [Link(ORIGIN_LINK, 1000.0 * 1e6), Link(CLIENT_LINK, 100.0 * 1e6)]
    subject, oracle = FluidSimulator(links, dt=0.1), ScanOracle(links, dt=0.1)
    for sim in (subject, oracle):
        _fig7_schedule(sim, m, *per_request)
        sim.run(40.0)
    assert_identical(subject, oracle)

    result = BandwidthAttackSimulation(per_request=per_request).run(m)
    for link, series, scale in (
        (ORIGIN_LINK, result.origin_mbps, 1e6),
        (CLIENT_LINK, result.client_kbps, 1e3),
    ):
        expected = [
            oracle.mean_throughput_bps(link, start=second, end=second + 1) / scale
            for second in range(40)
        ]
        assert [value.hex() for value in series] == [value.hex() for value in expected]


# -- generated transfer sets ----------------------------------------------------

LINK_NAMES = ("a", "b", "c")


@st.composite
def scenarios(draw):
    names = draw(st.lists(st.sampled_from(LINK_NAMES), min_size=1, max_size=3, unique=True))
    capacities = {
        name: draw(st.sampled_from([8e3, 1e6, 3e6, 12_345.0, 1e7])) for name in names
    }
    dt = draw(st.sampled_from([0.1, 0.05, 0.25, 1 / 3]))
    transfer = st.tuples(
        st.one_of(
            st.just(0),
            st.integers(min_value=0, max_value=400_000),
            st.floats(min_value=0, max_value=400_000, allow_nan=False),
        ),
        # Repeats allowed: a transfer may load one link twice.
        st.lists(st.sampled_from(names), min_size=1, max_size=3),
        st.one_of(
            st.sampled_from([0.0, 0.1, 0.5, 1.0, 2.0]),
            st.floats(min_value=-1.0, max_value=4.0, allow_nan=False),
        ),
    )
    # Each phase adds transfers, then advances the clock; transfers of a
    # later phase may start in the past.
    phases = draw(
        st.lists(
            st.tuples(
                st.lists(transfer, max_size=8),
                st.floats(min_value=0.0, max_value=2.5, allow_nan=False),
            ),
            min_size=1,
            max_size=4,
        )
    )
    return [Link(name, capacities[name]) for name in names], dt, phases


def replay(links, dt, phases):
    subject, oracle = FluidSimulator(links, dt=dt), ScanOracle(links, dt=dt)
    for batch, advance in phases:
        for size, path, start in batch:
            subject.add_transfer(size, path, start_time=start)
            oracle.add_transfer(size, path, start_time=start)
        horizon = subject.now + advance
        subject.run(horizon)
        oracle.run(horizon)
        assert_identical(subject, oracle)
    for name in oracle._links:
        for start, end in ((0.0, float("inf")), (0.5, 1.5), (1.0, 2.0)):
            assert subject.mean_throughput_bps(name, start, end).hex() == (
                oracle.mean_throughput_bps(name, start, end).hex()
            )
    return subject


_MIXED = (
    [Link("a", 1e6), Link("b", 3e6)],
    0.1,
    [
        (
            [
                (200_000, ["a", "b"], 1.0),  # multi-link, starts after the next
                (50_000, ["b"], 0.5),  # out of insertion order
                (0, ["a"], 0.0),  # zero bytes
                (80_000, ["a", "a"], 0.0),  # loads one link twice
            ],
            1.2,
        ),
        ([(30_000, ["a"], 0.2), (10_000, ["b"], 3.0)], 1.0),  # 0.2 is past
        ([], 2.5),
    ],
)


@settings(max_examples=150, deadline=None)
@given(scenarios())
@example(_MIXED)
def test_generated_transfer_sets_identical_to_scan(scenario):
    replay(*scenario)


def test_mixed_example_covers_every_feature():
    links, dt, phases = _MIXED
    subject = replay(links, dt, phases)
    transfers = subject.transfers
    assert any(len(set(t.links)) > 1 for t in transfers)
    assert any(
        later.start_time < earlier.start_time
        for earlier, later in zip(transfers, transfers[1:])
    )
    assert any(t.size_bytes == 0 and t.finish_time is None for t in transfers)
    # The transfer added at t ≈ 1.2 with start 0.2 still ran to the end.
    late = transfers[4]
    assert late.start_time < 1.2 and late.done and late.finish_time > 1.2


# -- the live set -----------------------------------------------------------------


class TestLiveSet:
    def test_tick_sees_only_live_transfers(self):
        simulator = FluidSimulator([Link("a", 8e6)], dt=0.1)  # 1 MB/s
        for second in range(10):
            simulator.add_transfer(100_000, ["a"], start_time=float(second))
        simulator.run(5.05)
        # Each transfer lasts 0.1 s: at most one is ever live, the five
        # not yet started are still pending, the rest are gone.
        assert len(simulator._live) <= 1
        assert len(simulator._pending) == 5
        assert all(t.done for t in simulator.transfers[:5])

    def test_zero_byte_transfers_are_never_live(self):
        simulator = FluidSimulator([Link("a", 8e6)], dt=0.1)
        transfer = simulator.add_transfer(0, ["a"])
        simulator.run(1.0)
        assert simulator._live == []
        assert transfer.finish_time is None
        assert all(s.active_transfers == 0 for s in simulator.samples_for("a"))


class TestFluidSpan:
    def test_one_span_per_run_with_its_counts(self):
        simulator = FluidSimulator([Link("a", 8e6), Link("b", 8e6)], dt=0.1)
        for start in (0.0, 0.0, 0.5):
            simulator.add_transfer(600_000, ["a"], start_time=start)
        simulator.add_transfer(1_000, ["b"], start_time=3.0)
        tracer = Tracer()
        with use_tracer(tracer):
            simulator.run(1.0)
            simulator.run(1.0)  # no tick, still one span
        spans = [s for s in tracer.finished_spans() if s.name == "net.fluid"]
        assert [s.attributes for s in spans] == [
            {"ticks": 10, "transfers": 4, "peak_active": 3},
            {"ticks": 0, "transfers": 4, "peak_active": 0},
        ]

    def test_tracing_does_not_change_samples(self):
        def run(traced):
            simulator = FluidSimulator([Link("a", 8e6)], dt=0.1)
            simulator.add_transfer(150_000, ["a"])
            simulator.add_transfer(50_000, ["a"], start_time=0.3)
            if traced:
                with use_tracer(Tracer()):
                    return simulator.run(2.0)
            return simulator.run(2.0)

        assert run(traced=True) == run(traced=False)
