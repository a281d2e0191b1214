"""Faulted-SBR measurement: determinism, baselines, grid equivalence."""

from repro.faults.experiment import (
    DEFAULT_FAULT_SEED,
    FaultedSbrResult,
    faulted_sbr_grid,
    measure_sbr_under_faults,
)
from repro.faults.plan import FaultPlan

MB = 1 << 20


class TestMeasureSbrUnderFaults:
    def test_same_seed_is_byte_identical(self):
        a = measure_sbr_under_faults("gcore", 1 * MB, seed=11, rounds=3)
        b = measure_sbr_under_faults("gcore", 1 * MB, seed=11, rounds=3)
        assert a == b  # frozen dataclass: every field, traffic included

    def test_different_seeds_change_the_fault_mix(self):
        a = measure_sbr_under_faults("gcore", 1 * MB, seed=1, rounds=4)
        b = measure_sbr_under_faults("gcore", 1 * MB, seed=2, rounds=4)
        assert (a.faults_injected, a.origin_traffic) != (
            b.faults_injected,
            b.origin_traffic,
        )

    def test_default_plan_injects_and_retries(self):
        result = measure_sbr_under_faults("gcore", 1 * MB, seed=DEFAULT_FAULT_SEED,
                                          rounds=4)
        assert isinstance(result, FaultedSbrResult)
        assert result.total_faults > 0
        assert result.retries > 0
        assert result.backoff_s > 0.0
        assert result.fetches > 0
        assert result.reamplification > 0.0
        assert result.max_attempts == 3  # gcore's budget

    def test_quiet_plan_matches_clean_baseline(self):
        result = measure_sbr_under_faults(
            "gcore", 1 * MB, seed=5, rounds=2, plan=FaultPlan.quiet(5)
        )
        assert result.total_faults == 0
        assert result.retries == 0
        assert result.exhausted_fetches == 0
        assert all(status == 206 for status in result.statuses)
        assert result.amplification == result.clean_amplification

    def test_clean_baseline_scales_with_rounds(self):
        one = measure_sbr_under_faults("gcore", 1 * MB, seed=3, rounds=1)
        three = measure_sbr_under_faults("gcore", 1 * MB, seed=3, rounds=3)
        assert three.clean_origin_traffic == 3 * one.clean_origin_traffic
        assert three.clean_client_traffic == 3 * one.clean_client_traffic


class TestFaultedSbrGrid:
    def test_grid_shape_and_keys(self):
        grid = faulted_sbr_grid(["gcore", "fastly"], [1 * MB], seed=9, rounds=2)
        assert len(grid) == 2
        assert [cell.key for cell in grid] == [
            ("gcore", 1 * MB, 9),
            ("fastly", 1 * MB, 9),
        ]
        assert all(cell.experiment == "sbr-faults" for cell in grid)
