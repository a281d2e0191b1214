"""Unit tests for the fluid-flow bandwidth simulator."""

import pytest

from repro.errors import SimulationError
from repro.netsim.bandwidth import FluidSimulator, Link


def _mbps(value):
    return value * 1e6


class TestSetup:
    def test_invalid_capacity(self):
        with pytest.raises(SimulationError):
            Link("l", 0)
        with pytest.raises(SimulationError):
            Link("l", -1)

    def test_duplicate_link_names(self):
        with pytest.raises(SimulationError):
            FluidSimulator([Link("l", 1), Link("l", 2)])

    def test_unknown_link_in_transfer(self):
        simulator = FluidSimulator([Link("a", _mbps(1))])
        with pytest.raises(SimulationError):
            simulator.add_transfer(100, ["nope"])

    def test_invalid_dt(self):
        with pytest.raises(SimulationError):
            FluidSimulator([Link("a", _mbps(1))], dt=0)

    def test_negative_size_rejected(self):
        simulator = FluidSimulator([Link("a", _mbps(1))])
        with pytest.raises(SimulationError):
            simulator.add_transfer(-1, ["a"])

    def test_run_backwards_rejected(self):
        simulator = FluidSimulator([Link("a", _mbps(1))])
        simulator.run(1.0)
        with pytest.raises(SimulationError):
            simulator.run(0.5)


NON_FINITE = [float("nan"), float("inf"), float("-inf")]


class TestNonFiniteInputs:
    """Non-finite numbers would break the admission heap's order (NaN
    compares false both ways) or make a run endless; all are refused
    up front."""

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_link_capacity(self, value):
        with pytest.raises(SimulationError, match="finite"):
            Link("a", value)

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_dt(self, value):
        with pytest.raises(SimulationError, match="finite"):
            FluidSimulator([Link("a", _mbps(1))], dt=value)

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_transfer_size(self, value):
        simulator = FluidSimulator([Link("a", _mbps(1))])
        with pytest.raises(SimulationError, match="finite"):
            simulator.add_transfer(value, ["a"])
        assert simulator.transfers == []

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_transfer_start_time(self, value):
        simulator = FluidSimulator([Link("a", _mbps(1))])
        with pytest.raises(SimulationError, match="finite"):
            simulator.add_transfer(100, ["a"], start_time=value)
        assert simulator.transfers == []

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_run_horizon(self, value):
        simulator = FluidSimulator([Link("a", _mbps(1))])
        with pytest.raises(SimulationError, match="finite"):
            simulator.run(value)

    def test_rejected_nan_start_leaves_the_simulation_intact(self):
        simulator = FluidSimulator([Link("a", _mbps(1))], dt=0.1)
        transfer = simulator.add_transfer(125_000, ["a"])
        with pytest.raises(SimulationError):
            simulator.add_transfer(float("nan"), ["a"])
        simulator.run(2.0)
        assert transfer.done
        assert all(
            sample.throughput_bps == sample.throughput_bps  # no NaN leaked
            for sample in simulator.samples_for("a")
        )


class TestUnknownLinkInspection:
    @pytest.mark.parametrize(
        "inspect",
        [
            lambda simulator: simulator.samples_for("nope"),
            lambda simulator: simulator.throughput_series("nope"),
            lambda simulator: simulator.mean_throughput_bps("nope"),
        ],
        ids=["samples_for", "throughput_series", "mean_throughput_bps"],
    )
    def test_raises(self, inspect):
        simulator = FluidSimulator([Link("a", _mbps(1))], dt=0.1)
        simulator.add_transfer(1000, ["a"])
        simulator.run(1.0)
        with pytest.raises(SimulationError, match="unknown link 'nope'"):
            inspect(simulator)

    def test_known_idle_link_still_reads_zero(self):
        simulator = FluidSimulator([Link("a", _mbps(1)), Link("b", _mbps(1))])
        simulator.add_transfer(1000, ["a"])
        simulator.run(1.0)
        assert simulator.mean_throughput_bps("b") == 0.0
        assert len(simulator.samples_for("b")) == len(simulator.samples_for("a"))


class TestSingleTransfer:
    def test_transfer_completes_at_expected_time(self):
        # 1 Mbps link, 1 Mbit transfer -> ~1 second.
        simulator = FluidSimulator([Link("a", _mbps(1))], dt=0.1)
        transfer = simulator.add_transfer(125_000, ["a"])
        simulator.run(2.0)
        assert transfer.done
        assert transfer.finish_time == pytest.approx(1.0, abs=0.15)

    def test_throughput_bounded_by_capacity(self):
        simulator = FluidSimulator([Link("a", _mbps(10))], dt=0.1)
        simulator.add_transfer(100 * 125_000, ["a"])
        simulator.run(1.0)
        for sample in simulator.samples_for("a"):
            assert sample.throughput_bps <= _mbps(10) * 1.001

    def test_transfer_not_started_does_not_consume(self):
        simulator = FluidSimulator([Link("a", _mbps(1))], dt=0.1)
        simulator.add_transfer(125_000, ["a"], start_time=5.0)
        simulator.run(1.0)
        assert simulator.mean_throughput_bps("a") == 0.0


class TestFairSharing:
    def test_equal_split_between_two_transfers(self):
        simulator = FluidSimulator([Link("a", _mbps(10))], dt=0.1)
        first = simulator.add_transfer(10 * 125_000, ["a"])
        second = simulator.add_transfer(10 * 125_000, ["a"])
        simulator.run(0.5)
        # Both progressed equally while sharing.
        assert first.remaining == pytest.approx(second.remaining)

    def test_max_min_respects_both_bottlenecks(self):
        # Transfer X uses links a+b; transfer Y uses only a.
        # b (1 Mbps) bottlenecks X, so Y should soak up the rest of a.
        simulator = FluidSimulator(
            [Link("a", _mbps(10)), Link("b", _mbps(1))], dt=0.1
        )
        simulator.add_transfer(1e9, ["a", "b"], label="x")
        simulator.add_transfer(1e9, ["a"], label="y")
        simulator.run(1.0)
        a_throughput = simulator.mean_throughput_bps("a")
        b_throughput = simulator.mean_throughput_bps("b")
        assert b_throughput == pytest.approx(_mbps(1), rel=0.05)
        assert a_throughput == pytest.approx(_mbps(10), rel=0.05)


class TestSaturation:
    def test_demand_below_capacity_passes_through(self):
        simulator = FluidSimulator([Link("a", _mbps(100))], dt=0.1)
        # 5 transfers x 1 Mbit starting at t=0: 5 Mbit total, finishes fast.
        for _ in range(5):
            simulator.add_transfer(125_000, ["a"])
        simulator.run(2.0)
        assert all(t.done for t in simulator.transfers)

    def test_oversubscription_pins_link_at_capacity(self):
        simulator = FluidSimulator([Link("a", _mbps(10))], dt=0.1)
        # 100 Mbit of demand in the first second on a 10 Mbps link.
        for second in range(3):
            for _ in range(4):
                simulator.add_transfer(10 * 125_000, ["a"], start_time=float(second))
        simulator.run(3.0)
        mean = simulator.mean_throughput_bps("a", start=0.5, end=3.0)
        assert mean == pytest.approx(_mbps(10), rel=0.02)

    def test_queue_drains_after_arrivals_stop(self):
        simulator = FluidSimulator([Link("a", _mbps(10))], dt=0.1)
        for _ in range(10):
            simulator.add_transfer(10 * 125_000, ["a"], start_time=0.0)
        simulator.run(15.0)
        assert all(t.done for t in simulator.transfers)
        # Link goes quiet once the queue drains (100 Mbit / 10 Mbps = 10 s).
        assert simulator.mean_throughput_bps("a", start=11.0, end=15.0) == 0.0


class TestDeterminism:
    """The allocator must be a pure function of the transfer list.

    Regression tests for the id()-keyed rate map flagged by
    ``repro purity``: rates are now keyed by position in the active
    list, so two identical simulations — different objects, different
    addresses — produce byte-identical sample streams.
    """

    @staticmethod
    def _run_once():
        simulator = FluidSimulator(
            [Link("a", _mbps(10)), Link("b", _mbps(1))], dt=0.1
        )
        simulator.add_transfer(1e7, ["a", "b"], label="x")
        simulator.add_transfer(1e7, ["a"], label="y")
        simulator.add_transfer(5e6, ["b"], label="z", start_time=0.5)
        simulator.run(3.0)
        return simulator

    def test_identical_runs_produce_identical_samples(self):
        first = self._run_once()
        second = self._run_once()
        assert first.transfers != []  # guard against a silent no-op run
        assert [s for s in first.samples_for("a")] == [
            s for s in second.samples_for("a")
        ]
        assert [s for s in first.samples_for("b")] == [
            s for s in second.samples_for("b")
        ]
        assert [t.remaining for t in first.transfers] == [
            t.remaining for t in second.transfers
        ]

    def test_rates_keyed_by_position_not_identity(self):
        simulator = FluidSimulator([Link("a", _mbps(10))], dt=0.1)
        transfers = [simulator.add_transfer(1e7, ["a"]) for _ in range(3)]
        rates = simulator._max_min_rates(transfers)
        assert sorted(rates) == [0, 1, 2]
        assert all(rate > 0 for rate in rates.values())
