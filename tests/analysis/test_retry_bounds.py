"""The retry-aware static bound and its soundness against simulation."""

import pytest

from repro.analysis.bounds import (
    RESPONSE_WIRE_FLOOR,
    FaultedSbrBound,
    faulted_sbr_bound,
    sbr_bound,
)
from repro.cdn.vendors import all_vendor_names
from repro.errors import ConfigurationError
from repro.faults.experiment import measure_sbr_under_faults
from repro.faults.retry import RetryPolicy, retry_policy_for

MB = 1 << 20


class TestFaultedSbrBound:
    def test_numerator_scales_by_attempt_budget(self):
        base = sbr_bound("gcore", 1 * MB)
        bound = faulted_sbr_bound("gcore", 1 * MB)
        assert bound.max_attempts == retry_policy_for("gcore").max_attempts
        assert bound.origin_bytes_upper == base.origin_bytes_upper * bound.max_attempts

    def test_denominator_is_the_bare_wire_floor(self):
        base = sbr_bound("gcore", 1 * MB)
        bound = faulted_sbr_bound("gcore", 1 * MB)
        assert bound.client_bytes_lower == base.client_responses * RESPONSE_WIRE_FLOOR

    def test_factor_dominates_the_clean_bound(self):
        for vendor in all_vendor_names():
            assert (
                faulted_sbr_bound(vendor, 1 * MB).factor
                >= sbr_bound(vendor, 1 * MB).factor
            )

    def test_explicit_policy_overrides_the_vendor_table(self):
        bound = faulted_sbr_bound(
            "gcore", 1 * MB, policy=RetryPolicy(max_attempts=7)
        )
        assert bound.max_attempts == 7

    def test_non_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            faulted_sbr_bound("gcore", 1 * MB, policy="aggressive")

    def test_delegated_identity_fields(self):
        bound = faulted_sbr_bound("azure", 1 * MB)
        assert bound.vendor == "azure"
        assert bound.resource_size == 1 * MB
        assert isinstance(bound, FaultedSbrBound)


class TestSoundnessAgainstSimulation:
    """The acceptance criterion: for every vendor in the quick grid, the
    retry-aware static bound dominates the simulated faulted factor."""

    @pytest.mark.parametrize("vendor", all_vendor_names())
    def test_bound_dominates_faulted_simulation(self, vendor):
        result = measure_sbr_under_faults(vendor, 1 * MB, rounds=2)
        bound = faulted_sbr_bound(vendor, 1 * MB)
        assert result.amplification <= bound.factor

    @pytest.mark.parametrize("seed", [1, 20200605, 987654])
    def test_bound_holds_across_seeds(self, seed):
        result = measure_sbr_under_faults("gcore", 1 * MB, seed=seed, rounds=3)
        assert result.amplification <= faulted_sbr_bound("gcore", 1 * MB).factor
