"""The fluid simulator's live-set tick against the all-transfers scan.

:class:`~repro.netsim.bandwidth.FluidSimulator` admits transfers from a
heap and ticks over the live set only.  The tick loop it replaced —
which asked every transfer ever scheduled whether it was active — is
kept here as the oracle, and every sample, every ``remaining`` and every
``finish_time`` must equal the oracle's float for float.

The oracle knows only single flows: a subject transfer with ``flows=k``
(a cohort) is fed to it as k consecutive copies, and each copy's
``remaining`` and ``finish_time`` must equal the cohort's.

The oracle computes every tick; the subject replays the ticks that
would repeat the one before them, and must still match it exactly.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.practical import CLIENT_LINK, ORIGIN_LINK, BandwidthAttackSimulation
from repro.errors import SimulationError
from repro.netsim.bandwidth import FluidSimulator, Link, LinkSample, Transfer
from repro.obs.tracer import Tracer, use_tracer
from repro.families.sbr import measure_sbr

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


def _flow_state(transfer: Transfer):
    return (_hex(transfer.remaining), _hex(transfer.finish_time))


def assert_same_samples(subject: FluidSimulator, oracle: ScanOracle) -> None:
    """Every link's samples equal bit for bit, and none is missing."""
    assert subject.now.hex() == oracle.now.hex()
    for name in oracle._links:
        assert [_sample_key(s) for s in subject.samples_for(name)] == [
            _sample_key(s) for s in oracle.samples if s.link == name
        ]
        assert [value.hex() for value in subject.throughput_series(name)] == [
            s.throughput_bps.hex() for s in oracle.samples if s.link == name
        ]


def assert_identical(subject: FluidSimulator, oracle: ScanOracle) -> None:
    """Every sample, and each flow's ``remaining`` and ``finish_time``,
    equal bit for bit; a cohort stands for its flows in a row."""
    assert_same_samples(subject, oracle)
    assert [
        _flow_state(transfer)
        for transfer in subject.transfers
        for _ in range(transfer.flows)
    ] == [_flow_state(transfer) for transfer in oracle.transfers]


def _add(subject, oracle, size, path, start, flows=1):
    """One subject transfer of ``flows`` flows; as many oracle copies."""
    subject.add_transfer(size, path, start_time=start, flows=flows)
    for _ in range(flows):
        oracle.add_transfer(size, path, start_time=start)


class ChangeCountingOracle(ScanOracle):
    """The oracle, counting the ticks whose live set differs from the
    previous tick's (the first tick always counts)."""

    def __init__(self, links: Sequence[Link], dt: float) -> None:
        super().__init__(links, dt)
        self.live_set_changes = 0
        self._previous = None

    def _max_min_rates(self, active):
        live_set = tuple(map(id, active))
        if live_set != self._previous:
            self.live_set_changes += 1
            self._previous = live_set
        return super()._max_min_rates(active)


# -- Fig 7 --------------------------------------------------------------------


@pytest.fixture(scope="module")
def per_request():
    probe = measure_sbr("cloudflare", 10 * MB)
    return (probe.origin_traffic, probe.client_traffic)


def _fig7_schedule(sim, m, origin_bytes, client_bytes):
    """One transfer per request, as Fig 7 ran before cohorts."""
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


def _fig7_cohorts(sim, m, origin_bytes, client_bytes):
    """The cohorts BandwidthAttackSimulation.run(m) schedules."""
    for second in range(30 if m else 0):
        sim.add_transfer(
            origin_bytes, [ORIGIN_LINK], start_time=float(second),
            label=f"origin:{second}", flows=m,
        )
        sim.add_transfer(
            client_bytes, [CLIENT_LINK], start_time=float(second),
            label=f"client:{second}", flows=m,
        )


def _fluid_spans(tracer):
    return [s.attributes for s in tracer.finished_spans() if s.name == "net.fluid"]


FIG7_LINKS = [Link(ORIGIN_LINK, 1000.0 * 1e6), Link(CLIENT_LINK, 100.0 * 1e6)]


@pytest.mark.parametrize("m", range(16))
def test_fig7_runs_identical_to_scan(per_request, m):
    subject = FluidSimulator(FIG7_LINKS, dt=0.1)
    cohorts = FluidSimulator(FIG7_LINKS, dt=0.1)
    oracle = ChangeCountingOracle(FIG7_LINKS, dt=0.1)
    _fig7_schedule(subject, m, *per_request)
    _fig7_schedule(oracle, m, *per_request)
    _fig7_cohorts(cohorts, m, *per_request)
    tracer = Tracer()
    with use_tracer(tracer):
        for sim in (subject, cohorts, oracle):
            sim.run(40.0)
    assert_identical(subject, oracle)

    # Cohorts order flows per second, not per request: each link still
    # sees the same flows in the same order, so samples match the
    # oracle's, and each flow's state matches its request's.
    assert_same_samples(cohorts, oracle)
    by_cohort = {}
    for transfer in oracle.transfers:
        by_cohort.setdefault(transfer.label.rsplit(":", 1)[0], []).append(
            _flow_state(transfer)
        )
    assert {
        transfer.label: [_flow_state(transfer)] * transfer.flows
        for transfer in cohorts.transfers
    } == by_cohort

    # An allocation is computed exactly on the ticks whose live set
    # changed, with one flow per request or one cohort per second.
    assert [span["allocations"] for span in _fluid_spans(tracer)] == [
        oracle.live_set_changes
    ] * 2
    peak_flows = max(
        origin.active_transfers + client.active_transfers
        for origin, client in zip(
            oracle.samples[0::2], oracle.samples[1::2]
        )
    )
    assert [span["peak_active"] for span in _fluid_spans(tracer)] == [peak_flows] * 2

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


def test_fig7_sweep_allocates_only_on_live_set_changes(per_request):
    tracer = Tracer()
    with use_tracer(tracer):
        BandwidthAttackSimulation(per_request=per_request).sweep()
    spans = _fluid_spans(tracer)
    assert len(spans) == 15
    assert sum(span["ticks"] for span in spans) == 6000
    assert sum(span["allocations"] for span in spans) == 1275
    # 1644 ticks computed; the rest repeat the tick before them.
    assert sum(span["replayed"] for span in spans) == 4356


@pytest.mark.xfail(
    strict=True,
    reason="known defect: the tick clock adds dt per tick and drifts below "
    "the grid, so the tick at 1.0 s starts at 0.9999999999999999",
)
def test_tick_clock_stays_on_the_grid(per_request):
    """Each tick should start at ``index * dt``.  Today ten additions of
    0.1 give 0.9999999999999999, so a transfer due at 1.0 s is admitted
    one tick late, second 0 averages 11 ticks and second 1 only 9, and
    Fig 7's peak client Kbps at m = 1 reads 7.3 instead of 6.5."""
    simulator = FluidSimulator([Link("a", 8e6)], dt=0.1)
    simulator.add_transfer(50_000, ["a"], start_time=1.0)
    simulator.run(3.0)
    times = simulator.tick_times
    admitted = [bps > 0 for bps in simulator.throughput_series("a")].index(True)
    per_second = [sum(1 for time in times if int(time) == second) for second in range(3)]
    peak = BandwidthAttackSimulation(per_request=per_request).run(1).peak_client_kbps
    # Today: (0.9999999999999999, 11, [11, 9, 10], "7.3").
    assert (times[10], admitted, per_second, f"{peak:.1f}") == (1.0, 10, [10, 10, 10], "6.5")


# -- generated transfer sets ----------------------------------------------------

LINK_NAMES = ("a", "b", "c")


@st.composite
def scenarios(draw):
    names = draw(st.lists(st.sampled_from(LINK_NAMES), min_size=1, max_size=3, unique=True))
    capacities = {
        name: draw(st.sampled_from([8e3, 1e6, 3e6, 12_345.0, 1e7])) for name in names
    }
    dt = draw(st.sampled_from([0.1, 0.05, 0.25, 1 / 3]))
    transfer = st.one_of(
        st.tuples(
            st.one_of(
                st.sampled_from([0, 0.0]),  # zero-size transfers
                st.integers(min_value=0, max_value=400_000),
                st.floats(min_value=0, max_value=400_000, allow_nan=False),
            ),
            # Repeats allowed: a transfer may load one link twice.
            st.lists(st.sampled_from(names), min_size=1, max_size=3),
            st.one_of(
                st.sampled_from([0.0, 0.1, 0.5, 1.0, 2.0]),
                # Off the tick grid of every dt above.
                st.sampled_from([0.01, 0.07, 0.35, 0.999, 1.0001, 2.42]),
                st.floats(min_value=-1.0, max_value=4.0, allow_nan=False),
            ),
            # The subject's cohort size; the oracle gets as many copies.
            st.one_of(st.just(1), st.integers(min_value=1, max_value=4)),
        ),
        # A long single flow: many steady ticks on its own, then a finish.
        st.tuples(
            st.integers(min_value=400_000, max_value=4_000_000),
            st.lists(st.sampled_from(names), min_size=1, max_size=2),
            st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
        ),
    )
    # Each phase adds transfers, then advances the clock; transfers of a
    # later phase may start in the past.  Long advances end in the middle
    # of a steady span as often as not.
    phases = draw(
        st.lists(
            st.tuples(
                st.lists(transfer, max_size=8),
                st.one_of(
                    st.floats(min_value=0.0, max_value=2.5, allow_nan=False),
                    st.floats(min_value=2.5, max_value=12.0, allow_nan=False),
                ),
            ),
            min_size=1,
            max_size=4,
        )
    )
    return [Link(name, capacities[name]) for name in names], dt, phases


def replay(links, dt, phases):
    subject, oracle = FluidSimulator(links, dt=dt), ScanOracle(links, dt=dt)
    for batch, advance in phases:
        for transfer in batch:
            _add(subject, oracle, *transfer)
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
                (50_000, ["b"], 0.5, 3),  # out of insertion order, a cohort
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
    assert any(t.flows > 1 for t in transfers)
    assert any(
        later.start_time < earlier.start_time
        for earlier, later in zip(transfers, transfers[1:])
    )
    assert any(t.size_bytes == 0 and t.finish_time is None for t in transfers)
    # The transfer added at t ≈ 1.2 with start 0.2 still ran to the end.
    late = transfers[4]
    assert late.start_time < 1.2 and late.done and late.finish_time > 1.2


# -- cohorts ------------------------------------------------------------------------


class TestCohorts:
    def test_cohort_interleaved_with_single_flows_on_other_links(self):
        subject = replay(
            [Link("a", 8e6), Link("b", 3e6), Link("c", 12_345.0)],
            0.1,
            [
                (
                    [
                        (120_000, ["b"], 0.0),
                        (90_000, ["a"], 0.0, 5),
                        (1_500, ["c"], 0.0),
                        (70_000, ["a"], 0.3, 3),
                        (20_000, ["b"], 0.3),
                        (1_000, ["c"], 0.3, 2),
                    ],
                    1.5,
                ),
                ([(10_000, ["b"], 1.0), (40_000, ["a"], 1.0, 4)], 3.0),
            ],
        )
        active = [s.active_transfers for s in subject.samples_for("a")]
        assert active[:4] == [5, 5, 5, 8]  # the second cohort joins at 0.3 s
        assert all(t.done for t in subject.transfers)

    def test_cohort_sharing_one_link_of_a_multi_link_path(self):
        subject = replay(
            [Link("a", 1e6), Link("b", 3e6)],
            0.1,
            [
                (
                    [
                        (150_000, ["a", "b"], 0.0),
                        (60_000, ["b"], 0.0, 4),  # meets the path on b only
                        (50_000, ["a", "b"], 0.2, 3),  # a multi-link cohort
                        (30_000, ["a"], 0.5, 2),
                    ],
                    4.0,
                ),
            ],
        )
        assert max(s.active_transfers for s in subject.samples_for("b")) == 8
        assert all(t.done for t in subject.transfers)

    @pytest.mark.parametrize("flows", [0, -1, 1.0, 2.5, True, False, "2", None])
    def test_flows_must_be_an_int_of_at_least_one(self, flows):
        simulator = FluidSimulator([Link("a", 1e6)])
        with pytest.raises(SimulationError, match="flows"):
            simulator.add_transfer(100, ["a"], flows=flows)
        with pytest.raises(SimulationError, match="flows"):
            Transfer(size_bytes=100, links=("a",), flows=flows)
        assert simulator.transfers == []


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
        # Admissions at 0 and 0.5 s are computed; the 8 ticks between
        # and after them are replayed.
        assert [s.attributes for s in spans] == [
            {
                "ticks": 10,
                "replayed": 8,
                "transfers": 4,
                "peak_active": 3,
                "allocations": 2,
            },
            {
                "ticks": 0,
                "replayed": 0,
                "transfers": 4,
                "peak_active": 0,
                "allocations": 0,
            },
        ]

    def test_counts_are_flows_and_allocations_follow_the_live_set(self):
        simulator = FluidSimulator([Link("a", 8e6)], dt=0.1)
        simulator.add_transfer(100_000, ["a"], flows=3)
        simulator.add_transfer(100_000, ["a"], start_time=0.5, flows=2)
        tracer = Tracer()
        with use_tracer(tracer):
            simulator.run(1.0)
        # Admitted at 0 and 0.5 (two allocations); the first cohort ends
        # at 0.3 s (a third), the second at 0.7 s (a fourth).  Replayed:
        # 0.1 and 0.4 s, then 0.8 and 0.9 s.
        assert _fluid_spans(tracer) == [
            {
                "ticks": 10,
                "replayed": 4,
                "transfers": 5,
                "peak_active": 3,
                "allocations": 4,
            }
        ]

    def test_tracing_does_not_change_samples(self):
        def run(traced):
            simulator = FluidSimulator([Link("a", 8e6)], dt=0.1)
            simulator.add_transfer(150_000, ["a"])
            simulator.add_transfer(50_000, ["a"], start_time=0.3, flows=2)
            if traced:
                with use_tracer(Tracer()):
                    simulator.run(2.0)
            else:
                simulator.run(2.0)
            return simulator.samples_for("a")

        traced = run(traced=True)
        assert len(traced) == 20
        assert traced == run(traced=False)
