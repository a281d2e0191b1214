"""OBR max-n: solved from the declared limits, certified by two probes.

The search (:func:`repro.core.obr.largest_admitted`) must give exactly
what a plain bisection over the same monotone probe gives — the
bisection is kept here as the oracle — while spending two probes on
every header-limited cascade.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import bounds
from repro.analysis.bounds import static_max_n
from repro.cdn.vendors import all_vendor_names, create_profile
from repro.core.obr import ObrAttack, largest_admitted, vulnerable_combinations
from repro.defense.mitigations import (
    SlicingProfile,
    with_bounded_expansion,
    with_laziness,
    with_overlap_rejection,
)
from repro.obs.memo import clear_all_memos

WRAPPERS = {
    "laziness": with_laziness,
    "bounded-expansion": with_bounded_expansion,
    "overlap-rejection": with_overlap_rejection,
    "slicing": SlicingProfile,
}

ORDERED_PAIRS = [
    (fcdn, bcdn)
    for fcdn in all_vendor_names()
    for bcdn in all_vendor_names()
    if fcdn != bcdn
]


def bisection_oracle(admits, lower, upper):
    """The search this module's subject replaced: probe ``lower``, then
    ``upper``, then bisect."""
    if not admits(lower):
        return 0
    if admits(upper):
        return upper
    low, high = lower, upper
    while high - low > 1:
        middle = (low + high) // 2
        if admits(middle):
            low = middle
        else:
            high = middle
    return low


def _wrapped(vendor, wrapper):
    return lambda: wrapper(create_profile(vendor))


class _CountingProbe:
    """Stands in for :func:`repro.analysis.bounds._static_probe`."""

    def __init__(self, probe):
        self.probe = probe
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.probe(*args, **kwargs)


@pytest.fixture
def counted_static_probe(monkeypatch):
    clear_all_memos()
    counter = _CountingProbe(bounds._static_probe)
    monkeypatch.setattr(bounds, "_static_probe", counter)
    yield counter
    clear_all_memos()


class TestLargestAdmitted:
    @settings(max_examples=300, deadline=None)
    @given(
        threshold=st.integers(min_value=0, max_value=300),
        lower=st.integers(min_value=1, max_value=40),
        span=st.integers(min_value=0, max_value=300),
        guess=st.one_of(st.none(), st.integers(min_value=-5, max_value=400)),
    )
    def test_any_guess_gives_the_bisection_answer(self, threshold, lower, span, guess):
        def admits(n):
            return n <= threshold

        upper = lower + span
        assert largest_admitted(admits, lower, upper, guess) == bisection_oracle(
            admits, lower, upper
        )

    def test_exact_guess_costs_two_probes(self):
        probed = []

        def admits(n):
            probed.append(n)
            return n <= 5455

        assert largest_admitted(admits, 2, 32768, 5455) == 5455
        assert probed == [5455, 5456]

    def test_small_answers_cost_only_small_probes(self):
        probed = []

        def admits(n):
            probed.append(n)
            return n <= 2

        assert largest_admitted(admits, 2, 32768, 10776) == 2
        assert probed[0] == 10776
        assert max(probed[1:]) <= 4
        assert len(probed) <= 6

    def test_too_low_a_guess_is_searched_past(self):
        assert largest_admitted(lambda n: n <= 700, 2, 1000, 64) == 700


class TestStaticMaxNMatchesBisection:
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        pair=st.sampled_from(ORDERED_PAIRS),
        wrapper=st.sampled_from([None, *WRAPPERS]),
        wrapped_side=st.sampled_from(["fcdn", "bcdn"]),
        resource_size=st.integers(min_value=1, max_value=1 << 24),
        lower=st.integers(min_value=2, max_value=80),
        upper=st.one_of(
            st.integers(min_value=2, max_value=200),
            st.integers(min_value=2, max_value=12000),
            st.just(32768),
        ),
    )
    def test_equals_the_oracle(
        self, pair, wrapper, wrapped_side, resource_size, lower, upper
    ):
        fcdn, bcdn = pair
        upper = max(lower, upper)
        fcdn_profile = bcdn_profile = None
        if wrapper is not None and wrapped_side == "fcdn":
            fcdn_profile = _wrapped(fcdn, WRAPPERS[wrapper])
        elif wrapper is not None:
            bcdn_profile = _wrapped(bcdn, WRAPPERS[wrapper])

        def admits(n):
            return bounds._static_probe(
                fcdn,
                bcdn,
                n,
                resource_size,
                "/1KB.bin",
                "victim.example",
                fcdn_profile=fcdn_profile,
                bcdn_profile=bcdn_profile,
            )

        solved = static_max_n(
            fcdn,
            bcdn,
            resource_size=resource_size,
            lower=lower,
            upper=upper,
            fcdn_profile=fcdn_profile,
            bcdn_profile=bcdn_profile,
        )
        assert solved == bisection_oracle(admits, lower, upper)


class TestProbeBudget:
    @pytest.mark.parametrize("fcdn,bcdn", vulnerable_combinations())
    def test_table5_cascades_take_two_static_probes(self, fcdn, bcdn, counted_static_probe):
        assert static_max_n(fcdn, bcdn) >= 2
        assert counted_static_probe.calls == 2

    @pytest.mark.parametrize("fcdn,bcdn", [("cdn77", "akamai"), ("cloudflare", "stackpath")])
    def test_wire_search_sends_two_probes(self, fcdn, bcdn, monkeypatch):
        probed = []
        probe = ObrAttack.probe

        def counted(attack, overlap_count):
            probed.append(overlap_count)
            return probe(attack, overlap_count)

        monkeypatch.setattr(ObrAttack, "probe", counted)
        n = ObrAttack(fcdn, bcdn).find_max_n()
        assert probed == [n, n + 1]

    @pytest.mark.parametrize("fcdn,bcdn", vulnerable_combinations())
    @pytest.mark.parametrize("side", ["fcdn", "bcdn"])
    def test_overlap_rejection_takes_few_probes(self, fcdn, bcdn, side, counted_static_probe):
        vendor = fcdn if side == "fcdn" else bcdn
        guarded = {f"{side}_profile": _wrapped(vendor, with_overlap_rejection)}
        assert static_max_n(fcdn, bcdn, **guarded) == 2
        assert counted_static_probe.calls <= 6
