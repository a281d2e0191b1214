"""Soundness cross-check: simulated factors never exceed static bounds.

This is the load-bearing contract of :mod:`repro.analysis.bounds` — the
analyzer's numbers are *upper* bounds on anything the simulation stack
can report.  Checked exhaustively over the quick run-all grid (every
vendor at the Fig 6 quick sizes, the quick Table V cascades) and
property-tested over random sizes and overlap counts.  The wire and the
static max-n searches are also checked to agree under each mitigation
wrapper.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.bounds import obr_bound, profile_sbr_bound, sbr_bound, static_max_n
from repro.cdn.vendors import QUICK_TABLE5_COMBOS, all_vendor_names, create_profile
from repro.cdn.vendors.azure import AzureProfile
from repro.core.obr import ObrAttack
from repro.core.sbr import SbrAttack
from repro.defense.mitigations import (
    SlicingProfile,
    with_bounded_expansion,
    with_laziness,
    with_overlap_rejection,
)

MB = 1 << 20
KB = 1 << 10

#: The quick run-all grid's SBR axis (Fig 6 quick sizes, which include
#: the Table IV quick size).
QUICK_SIZES = (1 * MB, 2 * MB, 3 * MB)

#: The full Fig 6 axis.
FIG6_SIZES = tuple(m * MB for m in range(1, 26))

#: The §VI-C mitigation wrappers, applied to one side of a cascade.
MITIGATIONS = {
    "laziness": with_laziness,
    "bounded-expansion": with_bounded_expansion,
    "overlap-rejection": with_overlap_rejection,
    "slicing": SlicingProfile,
}


class TestSbrGridNeverExceedsBound:
    @pytest.mark.parametrize("vendor", all_vendor_names())
    def test_quick_grid_cells(self, vendor):
        for size in QUICK_SIZES:
            simulated = SbrAttack(vendor, resource_size=size).run()
            bound = sbr_bound(vendor, size)
            assert simulated.amplification <= bound.factor, (
                f"{vendor} at {size}: simulated {simulated.amplification:.1f} "
                f"exceeds static bound {bound.factor:.1f}"
            )

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        vendor=st.sampled_from(all_vendor_names()),
        size=st.integers(min_value=64 * KB, max_value=4 * MB),
    )
    def test_random_sizes(self, vendor, size):
        simulated = SbrAttack(vendor, resource_size=size).run()
        bound = sbr_bound(vendor, size)
        assert simulated.amplification <= bound.factor

    @pytest.mark.parametrize("vendor", ["azure", "keycdn", "stackpath"])
    def test_profile_bound_covers_multi_exchange_flows(self, vendor):
        # The registry profiles whose fetch flows make more than one
        # exchange are bounded through the profile route too.
        profile = create_profile(vendor)
        for size in FIG6_SIZES:
            simulated = SbrAttack(vendor, resource_size=size).run()
            bound = profile_sbr_bound(vendor, profile, size)
            assert simulated.amplification <= bound.factor, (vendor, size)


class TestObrGridNeverExceedsBound:
    @pytest.mark.parametrize("fcdn,bcdn", QUICK_TABLE5_COMBOS)
    def test_quick_grid_cells(self, fcdn, bcdn):
        attack = ObrAttack(fcdn, bcdn)
        simulated_n = attack.find_max_n()
        # The static search replays the same rejection points, so the
        # two agree exactly — not just within a factor.
        assert simulated_n == static_max_n(fcdn, bcdn)
        result = attack.run(overlap_count=simulated_n)
        bound = obr_bound(fcdn, bcdn)
        assert result.amplification <= bound.factor, (
            f"{fcdn}->{bcdn}: simulated {result.amplification:.1f} "
            f"exceeds static bound {bound.factor:.1f}"
        )

    @pytest.mark.parametrize("fcdn,bcdn", QUICK_TABLE5_COMBOS)
    @pytest.mark.parametrize("side", ["fcdn", "bcdn"])
    @pytest.mark.parametrize("mitigation", sorted(MITIGATIONS))
    def test_wire_max_n_under_mitigations(self, fcdn, bcdn, side, mitigation):
        # The wire search certifies n in a few probes, so the simulated
        # and the static answer can be compared under wrapped profiles too.
        wrap = MITIGATIONS[mitigation]
        vendor = fcdn if side == "fcdn" else bcdn

        profile = wrap(create_profile(vendor))
        fcdn_profile = profile if side == "fcdn" else None
        bcdn_profile = profile if side == "bcdn" else None
        simulated_n = ObrAttack(
            fcdn, bcdn, fcdn_profile=fcdn_profile, bcdn_profile=bcdn_profile
        ).find_max_n()
        assert simulated_n == static_max_n(
            fcdn, bcdn, fcdn_profile=fcdn_profile, bcdn_profile=bcdn_profile
        )

    @pytest.mark.parametrize("size", [9 * MB, 12 * MB])
    @pytest.mark.parametrize("abort_slop", [1 * KB, 64 * KB, 1 * MB])
    def test_azure_back_end_cut_is_its_own(self, abort_slop, size):
        # The attacker-side floor is the back end's own cut, not the
        # registry profile's.
        back = AzureProfile(abort_slop=abort_slop)
        result = ObrAttack("cdn77", "azure", resource_size=size, bcdn_profile=back).run(
            overlap_count=4
        )
        bound = obr_bound(
            "cdn77", "azure", resource_size=size, overlap_count=4, bcdn_profile=back
        )
        assert bound.attacker_bytes_lower <= result.bcdn_origin_traffic
        assert result.amplification <= bound.factor

    @pytest.mark.parametrize("size", [9 * MB, 12 * MB, 25 * MB])
    @pytest.mark.parametrize("mitigation", ["laziness", "bounded-expansion"])
    def test_mitigated_azure_back_end_past_8mb(self, mitigation, size):
        # A mitigated back end runs the base single-connection fetch,
        # which makes no cut: the full representation is the floor.
        back = MITIGATIONS[mitigation](create_profile("azure"))
        result = ObrAttack("cdn77", "azure", resource_size=size, bcdn_profile=back).run(
            overlap_count=4
        )
        bound = obr_bound(
            "cdn77", "azure", resource_size=size, overlap_count=4, bcdn_profile=back
        )
        assert size <= bound.attacker_bytes_lower <= result.bcdn_origin_traffic
        assert result.amplification <= bound.factor

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(overlap_count=st.integers(min_value=2, max_value=64))
    def test_random_overlap_counts(self, overlap_count):
        result = ObrAttack("cloudflare", "akamai").run(overlap_count=overlap_count)
        bound = obr_bound("cloudflare", "akamai", overlap_count=overlap_count)
        assert result.amplification <= bound.factor
