"""Integration tests for the bandwidth experiment (paper §V-D, Fig 7)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.practical import BandwidthAttackSimulation
from repro.reporting.paper_values import (
    PAPER_FIG7_FULL_SATURATION_M,
    PAPER_FIG7_NEAR_SATURATION_M,
)

MB = 1 << 20


@pytest.fixture(scope="module")
def simulation():
    return BandwidthAttackSimulation(vendor="cloudflare", resource_size=10 * MB)


class TestPerRequestTraffic:
    def test_measured_once_and_cached(self, simulation):
        first = simulation.per_request_traffic()
        second = simulation.per_request_traffic()
        assert first == second

    def test_per_request_sizes_are_sbr_shaped(self, simulation):
        origin_bytes, client_bytes = simulation.per_request_traffic()
        assert origin_bytes == pytest.approx(10 * MB, rel=0.01)
        assert client_bytes < 1500


class TestSingleRun:
    def test_low_m_proportional(self, simulation):
        """Fig 7b: below saturation, throughput is ~m x 84 Mbps."""
        result = simulation.run(3)
        expected = 3 * simulation.per_request_traffic()[0] * 8 / 1e6
        assert result.steady_origin_mbps == pytest.approx(expected, rel=0.05)
        assert not result.saturated

    def test_high_m_pins_uplink(self, simulation):
        """Fig 7b: m = 14 exhausts the 1000 Mbps uplink."""
        result = simulation.run(14)
        assert result.saturated
        assert result.steady_origin_mbps == pytest.approx(1000.0, rel=0.03)

    def test_throughput_never_exceeds_capacity(self, simulation):
        result = simulation.run(15)
        assert max(result.origin_mbps) <= 1000.0 * 1.001

    def test_client_incoming_stays_tiny(self, simulation):
        """Fig 7a: client incoming bandwidth below 500 Kbps for any m."""
        for m in (1, 8, 15):
            result = simulation.run(m)
            assert result.peak_client_kbps < 500.0

    def test_zero_m_is_quiet(self, simulation):
        result = simulation.run(0)
        assert result.steady_origin_mbps == 0.0

    def test_negative_m_rejected(self, simulation):
        with pytest.raises(ValueError):
            simulation.run(-1)

    @pytest.mark.parametrize("m", [True, False, 2.0, 1.5, "3", None])
    def test_non_int_m_rejected(self, simulation, m):
        with pytest.raises(ValueError, match="m must be an int"):
            simulation.run(m)


class TestSweepShape:
    def test_saturation_threshold_matches_paper_band(self, simulation):
        """The paper reports near-saturation from m = 11 and complete
        exhaustion from m = 14; our crossover must land in that band."""
        threshold = simulation.saturation_threshold()
        assert threshold is not None
        assert (
            PAPER_FIG7_NEAR_SATURATION_M
            <= threshold
            <= PAPER_FIG7_FULL_SATURATION_M
        )

    def test_saturation_threshold_stops_at_first_saturated_m(
        self, simulation, monkeypatch
    ):
        ran = []
        run = simulation.run
        monkeypatch.setattr(simulation, "run", lambda m: ran.append(m) or run(m))
        threshold = simulation.saturation_threshold()
        assert ran == list(range(1, threshold + 1))
        assert threshold == 12  # the default sweep stops well before 15

    def test_saturation_threshold_none_when_nothing_saturates(self, simulation):
        assert simulation.saturation_threshold(ms=(0, 1, 2)) is None

    def test_monotone_growth_then_plateau(self, simulation):
        results = simulation.sweep(ms=(2, 6, 10, 14, 15))
        steady = [r.steady_origin_mbps for r in results]
        assert steady == sorted(steady)
        # Plateau: 14 and 15 within a percent of each other.
        assert steady[-1] == pytest.approx(steady[-2], rel=0.01)

    def test_near_saturation_at_paper_m(self, simulation):
        result = simulation.run(PAPER_FIG7_NEAR_SATURATION_M)
        assert result.steady_origin_mbps > 0.9 * 1000.0


def per_second_loop(times, throughput, total):
    """The per-tick loop ``_per_second_bps`` replaced: file each tick
    into the second its start time falls in, then average in order."""
    windows = [[] for _ in range(int(total))]
    for time, bps in zip(times, throughput):
        second = math.floor(time)
        if 0 <= second < len(windows):
            windows[second].append(bps)
    return [sum(window) / len(window) if window else 0.0 for window in windows]


#: Tick times on and beside second boundaries: the drifted 1.0 tick, the
#: horizon's edges, and times before zero.
_EDGE_TIMES = [-0.5, 0.0, 0.9999999999999999, 1.0, 2.5, 39.99999999999999, 40.0, 40.5]


class TestPerSecondMeans:
    @given(
        times=st.lists(
            st.one_of(
                st.sampled_from(_EDGE_TIMES),
                st.floats(min_value=-1.0, max_value=42.0, allow_nan=False),
            ),
            max_size=120,
            unique=True,
        ).map(sorted),
        values=st.lists(
            st.floats(min_value=0.0, max_value=1e9, allow_nan=False), min_size=120, max_size=120
        ),
        short=st.integers(min_value=0, max_value=3),
        total=st.sampled_from([40.0, 40.5, 1.0, 0.0]),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_the_per_tick_loop(self, times, values, short, total):
        throughput = values[: max(0, len(times) - short)]
        expected = per_second_loop(times, throughput, total)
        assert BandwidthAttackSimulation._per_second_bps(times, throughput, total) == expected

    @pytest.mark.parametrize("m", [1, 14])
    def test_fig7_series_equal_the_per_tick_loop(self, simulation, monkeypatch, m):
        # Real tick clocks: at m = 1 the tick due at 1.0 s starts at
        # 0.9999999999999999.
        compared = []
        bisected = BandwidthAttackSimulation._per_second_bps

        def checked(times, throughput, total):
            means = bisected(times, throughput, total)
            assert means == per_second_loop(times, throughput, total)
            compared.append(len(times))
            return means

        monkeypatch.setattr(BandwidthAttackSimulation, "_per_second_bps", staticmethod(checked))
        simulation.run(m)
        assert len(compared) == 2 and compared[0] > 300
