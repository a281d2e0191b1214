"""Differential harness: fast path == wire-level simulation.

The engines in :mod:`repro.core.vectorized` answer every cell with the
simulation's own result; refusing
(:class:`~repro.core.vectorized.ExactModelError`) is their only escape
hatch.  OBR's only input of their own is the overlap count of a grid
cell's "search", taken from the static max-n search instead of wire
probes.  This suite pins bit identity cell by cell:

* every Table IV cell (13 vendors x the paper's three sizes),
* every Table V cascade (all 11 vulnerable FCDN x BCDN combinations),
* CCFC's closed-form ``mirror()`` (which backs ``ccfc_bound``) against
  ``run()`` for all 13 vendors,
* hypothesis-driven random (vendor, size) and (cascade, overlap) cells:
  ``fast == sim`` wherever the engine answers, and ``sim <= bound``
  everywhere else (the static-bounds soundness contract covers the
  refused cells),
* OBR refusals (a cascade with static max n 0, a self-cascade, a
  degenerate size): refused by the engine, counted and left in the
  residual by the planner, and answered or failed by the grid runner
  exactly as the simulation does,
* the planner layer: grid partitioning, and the full run-all grid
  answered without a refusal.

Equality here is dataclass equality over every recorded field — per
segment connection/exchange counts and request/sent/delivered byte
totals — not just the headline amplification factor.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.bounds import obr_bound, sbr_bound, static_max_n
from repro.cdn.vendors import all_vendor_names
from repro.core.obr import ObrAttack, vulnerable_combinations
from repro.core.sbr import SbrAttack
from repro.core.ccfc import CcfcAttack
from repro.core.vectorized import (
    CcfcFastEngine,
    ExactModelError,
    ObrFastEngine,
    SbrFastEngine,
)

MB = 1 << 20
KB = 1 << 10

TABLE4_SIZES = (1 * MB, 10 * MB, 25 * MB)


@pytest.fixture(scope="module")
def sbr_engine():
    return SbrFastEngine()


@pytest.fixture(scope="module")
def obr_engine():
    return ObrFastEngine()


class TestTable4BitIdentity:
    """All 13 Table IV vendors, all three paper sizes."""

    @pytest.mark.parametrize("vendor", all_vendor_names())
    def test_vendor_matches_simulation_exactly(self, vendor, sbr_engine):
        for size in TABLE4_SIZES:
            fast = sbr_engine.measure(vendor, size)
            simulated = SbrAttack(vendor, resource_size=size).run()
            assert fast == simulated, (
                f"{vendor} at {size}: fast path diverged from simulation"
            )


class TestTable5BitIdentity:
    """All 11 Table V cascades, at the searched maximum n."""

    @pytest.mark.parametrize("fcdn,bcdn", vulnerable_combinations())
    def test_cascade_matches_simulation_exactly(self, fcdn, bcdn, obr_engine):
        attack = ObrAttack(fcdn, bcdn)
        max_n = attack.find_max_n()
        # The fast path resolves n through the static search; the two
        # searches agree exactly (pinned by test_cross_check.py too).
        assert static_max_n(fcdn, bcdn) == max_n
        fast = obr_engine.measure(fcdn, bcdn)
        simulated = attack.run(overlap_count=max_n)
        assert fast == simulated, (
            f"{fcdn}->{bcdn}: fast path diverged from simulation at n={max_n}"
        )


class TestCcfcBitIdentity:
    """All 13 vendors at the paper sizes: the full result dataclass
    must match, not just the factor."""

    @pytest.mark.parametrize("vendor", all_vendor_names())
    def test_vendor_matches_simulation_exactly(self, vendor):
        engine = CcfcFastEngine()
        for size in (1 * MB, 10 * MB):
            fast = engine.measure(vendor, size)
            simulated = CcfcAttack(vendor, resource_size=size).run()
            assert fast == simulated, (
                f"{vendor} at {size}: fast path diverged from simulation"
            )

    @pytest.mark.parametrize("vendor", all_vendor_names())
    def test_mirror_matches_simulation_exactly(self, vendor):
        # The mirror backs ccfc_bound; it must replay run() byte for byte.
        for size in (1 * MB, 10 * MB):
            attack = CcfcAttack(vendor, resource_size=size)
            assert attack.mirror() == attack.run(), (
                f"{vendor} at {size}: mirror diverged from simulation"
            )

    def test_unknown_vendor_rejected(self):
        with pytest.raises(ExactModelError):
            CcfcFastEngine().measure("nosuch", 1 * MB)

    def test_degenerate_size_rejected(self):
        with pytest.raises(ExactModelError):
            CcfcFastEngine().measure("cloudflare", 0)


class TestRandomCells:
    """Property check: exact where claimed, bounded where refused."""

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        vendor=st.sampled_from(all_vendor_names()),
        size=st.integers(min_value=64 * KB, max_value=32 * MB),
    )
    def test_sbr_random_sizes(self, vendor, size, sbr_engine):
        simulated = SbrAttack(vendor, resource_size=size).run()
        try:
            fast = sbr_engine.measure(vendor, size)
        except ExactModelError:
            # Refused: the soundness fallback still holds.
            assert simulated.amplification <= sbr_bound(vendor, size).factor
            return
        assert fast == simulated

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        combo=st.sampled_from(vulnerable_combinations()),
        overlap_count=st.integers(min_value=2, max_value=64),
    )
    def test_obr_random_overlap_counts(self, combo, overlap_count, obr_engine):
        fcdn, bcdn = combo
        simulated = ObrAttack(fcdn, bcdn).run(overlap_count=overlap_count)
        try:
            fast = obr_engine.measure(fcdn, bcdn, overlap_count=overlap_count)
        except ExactModelError:
            bound = obr_bound(fcdn, bcdn, overlap_count=overlap_count)
            assert simulated.amplification <= bound.factor
            return
        assert fast == simulated


class TestSbrEngineRefusals:
    def test_unknown_vendor_rejected(self, sbr_engine):
        with pytest.raises(ExactModelError):
            sbr_engine.measure("nonexistent-cdn", 1 * MB)

    def test_degenerate_size_rejected(self, sbr_engine):
        with pytest.raises(ExactModelError):
            sbr_engine.measure("akamai", 1)

    def test_refusal_leaves_engine_usable(self, sbr_engine):
        with pytest.raises(ExactModelError):
            sbr_engine.measure("akamai", 0)
        assert sbr_engine.measure("akamai", 1 * MB) == SbrAttack(
            "akamai", resource_size=1 * MB
        ).run()


class TestObrRefusalFallback:
    """Cells the OBR engine refuses fall back to the grid runner, which
    answers or fails them exactly as the simulation does."""

    def _plan_and_run(self, cell):
        from repro.runner.executor import GridRunner
        from repro.runner.fastpath import FastPathPlanner
        from repro.runner.grid import ExperimentGrid

        grid = ExperimentGrid("refusal", [cell])
        plan = FastPathPlanner().plan(grid)
        assert plan.outcomes == {}
        assert plan.stats.refused == 1
        assert plan.stats.answered == 0
        assert list(plan.residual) == [cell]
        return GridRunner().run(plan.residual).outcomes[0]

    def test_static_max_n_zero_is_refused_and_simulated(self, obr_engine):
        from repro.families.obr import grid_cell as obr_cell

        # akamai does not forward the overlapping ranges unchanged, so the
        # static search finds no n; the wire probe search still admits one.
        assert static_max_n("akamai", "alibaba") == 0
        with pytest.raises(ExactModelError):
            obr_engine.measure("akamai", "alibaba")
        outcome = self._plan_and_run(obr_cell("akamai", "alibaba"))
        assert outcome.ok
        assert outcome.value == ObrAttack("akamai", "alibaba").run()

    @pytest.mark.parametrize(
        "fcdn,bcdn,size", [("akamai", "akamai", 1024), ("cloudflare", "akamai", 0)]
    )
    def test_refused_cell_fails_with_the_simulation_error(
        self, fcdn, bcdn, size, obr_engine
    ):
        from repro.errors import ConfigurationError
        from repro.families.obr import grid_cell as obr_cell

        with pytest.raises(ExactModelError):
            obr_engine.measure(fcdn, bcdn, resource_size=size)
        with pytest.raises(ConfigurationError) as raised:
            ObrAttack(fcdn, bcdn, resource_size=size).run()
        outcome = self._plan_and_run(obr_cell(fcdn, bcdn, resource_size=size))
        assert not outcome.ok
        assert outcome.failure.exception_type == "ConfigurationError"
        assert outcome.failure.message == str(raised.value)

    def test_unknown_vendor_is_refused(self, obr_engine):
        with pytest.raises(ExactModelError):
            obr_engine.measure("nosuch", "akamai")


class TestPlannerLayer:
    def _quick_grid(self):
        from repro.runner.runall import build_run_all_grid

        return build_run_all_grid(quick=True)

    def test_plan_partitions_quick_grid(self):
        from repro.runner.fastpath import FastPathPlanner

        grid = self._quick_grid()
        plan = FastPathPlanner().plan(grid)
        assert plan.stats.answered + len(plan.residual) == len(grid)
        assert plan.stats.ineligible == 3  # the flood cells
        assert plan.stats.refused == 0
        assert plan.stats.hit_rate > 0.9
        # Fast outcomes carry original grid indices and flood cells all
        # fall through to the residual.
        for index, outcome in plan.outcomes.items():
            assert grid.cells[index] == outcome.cell
            assert outcome.cell.experiment in ("sbr", "obr", "ccfc")
        assert {cell.experiment for cell in plan.residual} == {"flood"}

    def test_fast_answers_equal_cell_functions(self):
        from repro.runner.experiments import execute_cell
        from repro.runner.fastpath import FastPathPlanner
        from repro.runner.memo import clear_all_memos

        clear_all_memos()
        plan = FastPathPlanner().plan(self._quick_grid())
        for outcome in plan.outcomes.values():
            assert outcome.value == execute_cell(outcome.cell), (
                f"planner answer diverges on {outcome.cell.label}"
            )

    def test_full_grid_is_answered_without_refusal(self):
        from repro.runner.experiments import execute_cell
        from repro.runner.fastpath import FastPathPlanner
        from repro.runner.memo import clear_all_memos
        from repro.runner.runall import build_run_all_grid

        clear_all_memos()
        grid = build_run_all_grid()
        plan = FastPathPlanner().plan(grid)
        assert plan.stats.refused == 0
        assert plan.stats.answered == 349  # every cell but the 15 floods
        assert plan.stats.calibration_runs == 0
        assert ("azure", 9437184) in {
            outcome.cell.key
            for outcome in plan.outcomes.values()
            if outcome.cell.experiment == "sbr"
        }
        for outcome in plan.outcomes.values():
            if outcome.cell.experiment in ("sbr", "ccfc"):
                assert outcome.value == execute_cell(outcome.cell), (
                    f"planner answer diverges on {outcome.cell.label}"
                )
