"""OBR max-n: solved from the declared limits, certified by two probes.

The search (:func:`repro.analysis.bounds.largest_admitted`) must give exactly
what a plain bisection over the same monotone probe gives — the
bisection is kept here as the oracle — while spending two probes on
every header-limited cascade.  Each probe checks header sizes
(:func:`repro.analysis.bounds._sized_probe`); the message-building
probe it replaced (``_static_probe``) is kept as the oracle every size
check must equal.
"""

from dataclasses import replace
from functools import partial

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import bounds
from repro.analysis.bounds import declared_max_n, largest_admitted, static_max_n
from repro.analysis.classify import (
    MAX_OVERLAPS,
    MULTI_RANGE_SHAPES,
    probe_decision,
)
from repro.cdn.policy import ForwardDecision
from repro.cdn.vendors import all_vendor_names, create_profile
from repro.cdn.vendors.base import ContextReads, VendorProfile
from repro.cdn.vendors.huawei import SIZE_THRESHOLD
from repro.core.obr import ObrAttack, vulnerable_combinations
from repro.defense.mitigations import (
    SlicingProfile,
    with_bounded_expansion,
    with_laziness,
    with_overlap_rejection,
)
from repro.errors import ConfigurationError
from repro.families.base import mitigated_profile
from repro.families.obr import FAMILY as OBR
from repro.obs.memo import clear_all_memos, memo_stats

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
    return wrapper(create_profile(vendor))


class _CountingProbe:
    """Stands in for :func:`repro.analysis.bounds._sized_probe` and
    records the ``n`` of every probe."""

    def __init__(self, probe):
        self.probe = probe
        self.probed = []

    @property
    def calls(self):
        return len(self.probed)

    def __call__(self, plan, back, overlap_count):
        self.probed.append(overlap_count)
        return self.probe(plan, back, overlap_count)


@pytest.fixture
def counted_sized_probe(monkeypatch):
    clear_all_memos()
    counter = _CountingProbe(bounds._sized_probe)
    monkeypatch.setattr(bounds, "_sized_probe", counter)
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


#: Every mitigation a recommendation may wrap a vendor in.
MITIGATIONS = (
    "laziness",
    "bounded-expansion",
    "overlap-rejection",
    "slicing",
    "encoding-passthrough",
    "encoding-normalization",
)

#: Where the opaque limit below starts rejecting: a Range line longer
#: than this many bytes, which falls between the registry caps.
OPAQUE_RANGE_LINE = 4000


def _with_opaque_limit(inner):
    """``inner``'s vendor with its ``custom`` limit replaced by an ad-hoc
    lambda, which only a real message can answer.  Profiles are
    immutable, so the limits come from a subclass."""
    limits = replace(
        inner.limits,
        custom=lambda request: (
            "Range line too long"
            if request.headers.field_line_size("Range") > OPAQUE_RANGE_LINE
            else None
        ),
    )

    class OpaqueLimit(type(inner)):
        def default_limits(self):
            return limits

    return OpaqueLimit()


#: Per-pair examples: a fraction of the loaded profile's budget, so the
#: ``ci`` profile runs more of them.
ORACLE_EXAMPLES = max(3, settings().max_examples // 25)


class TestSizedProbeMatchesTheMessageOracle:
    """Every size-form probe gives what the message-building probe gives
    at the same ``n``: near each cap, at random, on both sides of
    Huawei's size switch, under every mitigation and an opaque limit."""

    @pytest.mark.parametrize("fcdn,bcdn", ORDERED_PAIRS)
    @settings(
        max_examples=ORACLE_EXAMPLES,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        substitute=st.sampled_from([None, *MITIGATIONS, "opaque-limit"]),
        side=st.sampled_from(["fcdn", "bcdn"]),
        resource_size=st.one_of(
            st.integers(min_value=1, max_value=SIZE_THRESHOLD - 1),
            st.integers(min_value=SIZE_THRESHOLD, max_value=4 * SIZE_THRESHOLD),
        ),
        anywhere=st.integers(min_value=2, max_value=MAX_OVERLAPS + 1),
    )
    def test_equals_the_static_probe(
        self, fcdn, bcdn, substitute, side, resource_size, anywhere
    ):
        vendor = fcdn if side == "fcdn" else bcdn
        profiles = {"fcdn_profile": None, "bcdn_profile": None}
        if substitute == "opaque-limit":
            profiles[f"{side}_profile"] = _wrapped(vendor, _with_opaque_limit)
        elif substitute is not None:
            profiles[f"{side}_profile"] = mitigated_profile(vendor, substitute)

        plan = bounds._front_plan(fcdn, resource_size, profiles["fcdn_profile"])
        back = profiles["bcdn_profile"] or create_profile(bcdn)
        cap = declared_max_n(fcdn, bcdn, resource_size, **profiles)
        if cap is None:
            cap = MAX_OVERLAPS
        for n in {cap - 1, cap, cap + 1, anywhere}:
            if n < 2:
                continue
            oracle = bounds._static_probe(fcdn, bcdn, n, resource_size, **profiles)
            assert bounds._sized_probe(plan, back, n) == oracle, n

    def test_a_search_below_two_ranges_is_refused(self):
        # The plan's decision is the multi-range one; n = 1 is a
        # single-range shape the front decides apart.
        with pytest.raises(ConfigurationError):
            static_max_n("cdn77", "akamai", lower=1)

    def test_the_opaque_limit_binds_below_the_declared_cap(self):
        front = _wrapped("cdn77", _with_opaque_limit)
        n = static_max_n("cdn77", "akamai", fcdn_profile=front)
        assert 2 < n < static_max_n("cdn77", "akamai")


class TestProbeBudget:
    @pytest.mark.parametrize("fcdn,bcdn", vulnerable_combinations())
    def test_table5_cascades_take_two_static_probes(self, fcdn, bcdn, counted_sized_probe):
        assert static_max_n(fcdn, bcdn) >= 2
        assert counted_sized_probe.calls == 2

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
    def test_overlap_rejection_takes_few_probes(self, fcdn, bcdn, side, counted_sized_probe):
        # The guard declares its overlap cap, so the search certifies
        # the solved n = 2 with exactly the probes 2 and 3.
        vendor = fcdn if side == "fcdn" else bcdn
        guarded = {f"{side}_profile": _wrapped(vendor, with_overlap_rejection)}
        assert static_max_n(fcdn, bcdn, **guarded) == 2
        assert counted_sized_probe.probed == [2, 3]

    @pytest.mark.parametrize("fcdn,bcdn", vulnerable_combinations())
    @pytest.mark.parametrize("side", ["fcdn", "bcdn"])
    def test_declared_max_n_solves_the_overlap_guard(self, fcdn, bcdn, side):
        vendor = fcdn if side == "fcdn" else bcdn
        guarded = {f"{side}_profile": _wrapped(vendor, with_overlap_rejection)}
        assert declared_max_n(fcdn, bcdn, 1024, **guarded) == 2


def _size_gated(inner):
    """A front end that forwards Range verbatim only below Huawei's size
    switch, so its max n depends on the size (no registry cascade's does)."""
    return _SizeGatedProfile(inner.limits)


class _SizeGatedProfile(VendorProfile):
    def forward_decision(self, request, spec, ctx):
        size = ctx.resource_size_hint
        if size is not None and size >= SIZE_THRESHOLD:
            return ForwardDecision.delete()
        return ForwardDecision.lazy(request.range_header)


#: How a property example substitutes one side: the shared mitigated
#: profiles by name, or the size-gated front/back above (memoized under
#: its instance, like the mitigations).
SIDE_FACTORIES = {
    **{name: partial(mitigated_profile, mitigation=name) for name in WRAPPERS},
    "size-gated": partial(_wrapped, wrapper=_size_gated),
}


class TestSizeFreeKeys:
    """A search none of whose decisions read the size is memoized once
    for every size; the answers stay what a cold search gives."""

    @pytest.mark.parametrize("fcdn,bcdn", ORDERED_PAIRS)
    @settings(max_examples=6, deadline=None, derandomize=True, database=None)
    @given(
        below=st.integers(min_value=1, max_value=SIZE_THRESHOLD - 1),
        above=st.integers(min_value=SIZE_THRESHOLD, max_value=4 * SIZE_THRESHOLD),
        warm_below=st.booleans(),
        substitute=st.sampled_from([None, *SIDE_FACTORIES]),
        side=st.sampled_from(["fcdn", "bcdn"]),
    )
    def test_a_warm_answer_is_the_cold_answer_at_another_size(
        self, fcdn, bcdn, below, above, warm_below, substitute, side
    ):
        profiles = {}
        if substitute is not None:
            vendor = fcdn if side == "fcdn" else bcdn
            profiles[f"{side}_profile"] = SIDE_FACTORIES[substitute](vendor)
        warm, query = (below, above) if warm_below else (above, below)

        clear_all_memos()
        static_max_n(fcdn, bcdn, resource_size=warm, **profiles)
        answered = static_max_n(fcdn, bcdn, resource_size=query, **profiles)
        clear_all_memos()
        assert answered == static_max_n(fcdn, bcdn, resource_size=query, **profiles)

    def test_the_size_gated_front_depends_on_the_size(self):
        front = SIDE_FACTORIES["size-gated"]("cdn77")
        small = static_max_n("cdn77", "akamai", 1024, fcdn_profile=front)
        large = static_max_n("cdn77", "akamai", SIZE_THRESHOLD, fcdn_profile=front)
        assert small > 0 == large

    @pytest.mark.parametrize(
        "fcdn,bcdn,sized",
        [("huawei", "akamai", True), ("huawei", "cdn77", True), ("cdn77", "akamai", False)],
    )
    def test_only_a_size_reading_front_gets_a_sized_key(self, fcdn, bcdn, sized):
        # Huawei's decision table reads the size (its 10 MB switch)
        # before it looks at the shape; CDN77's never does.
        reads = ContextReads()
        probe_decision(fcdn, MULTI_RANGE_SHAPES[0], 1024, reads=reads)
        assert reads.size is sized

        clear_all_memos()
        first = static_max_n(fcdn, bcdn, resource_size=1024)
        second = static_max_n(fcdn, bcdn, resource_size=2048)
        assert first == second
        stats = memo_stats()["static_max_n"]
        assert (stats.misses, stats.hits) == ((2, 0) if sized else (1, 1))

    @pytest.mark.parametrize("fcdn,bcdn", vulnerable_combinations())
    def test_fresh_sizes_take_no_probes_after_warm_up(
        self, fcdn, bcdn, counted_sized_probe
    ):
        def analyze(size):
            finding = OBR.finding((fcdn, bcdn), size, None, None)
            assert finding.kind == "obr"
            residuals = [OBR.residual((fcdn, bcdn), spec, size) for spec in OBR.mitigations]
            return finding.data["max_n"], residuals

        warm = analyze(1024)
        assert counted_sized_probe.calls > 0
        counted_sized_probe.probed.clear()
        fresh = analyze(3001)
        assert counted_sized_probe.calls == 0
        assert fresh[0] == warm[0]
        clear_all_memos()
        assert analyze(3001) == fresh
