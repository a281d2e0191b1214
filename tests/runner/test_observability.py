"""Runner-level observability: timing stats, collected traces/metrics,
the progress observer, and the run-all harvest.

Satellite (b) lives here — :meth:`GridResult.cell_seconds` must surface
max/mean and failed-cell timing, not just a sum — plus the integration
bar: a collected run-all profiles **every** grid cell, its spans link
up per cell, and per-cell metric counters reconcile with the trace
events those same cells emitted.
"""

from __future__ import annotations

import pytest

from repro.core.sbr import sbr_grid
from repro.netsim.tap import CDN_ORIGIN, CLIENT_CDN
from repro.netsim.trace import summarize
from repro.obs.metrics import (
    SEGMENT_EXCHANGES,
    SEGMENT_REQUEST_BYTES,
    SEGMENT_RESPONSE_BYTES_DELIVERED,
    SEGMENT_RESPONSE_BYTES_SENT,
    MetricsRegistry,
)
from repro.runner.executor import CellFailure, CellOutcome, CellTiming, GridRunner
from repro.families.obr import grid_cell as obr_cell
from repro.families.sbr import grid_cell as sbr_cell
from repro.runner.grid import ExperimentGrid
from repro.runner.memo import clear_all_memos
from repro.runner.runall import build_run_all_grid, run_all

MB = 1 << 20

#: (metric counter name, summarize()/SegmentStats field) pairs that must
#: reconcile between the metrics registry and the trace-event stream.
BYTE_COUNTERS = (
    (SEGMENT_EXCHANGES, "exchanges"),
    (SEGMENT_REQUEST_BYTES, "request_bytes"),
    (SEGMENT_RESPONSE_BYTES_SENT, "response_bytes_sent"),
    (SEGMENT_RESPONSE_BYTES_DELIVERED, "response_bytes_delivered"),
)


@pytest.fixture(autouse=True)
def _fresh_memos():
    """Memoized cells would otherwise skip the traced execution path."""
    clear_all_memos()
    yield
    clear_all_memos()


def _outcome(label, duration_s, ok=True, index=0):
    return CellOutcome(
        cell=sbr_cell(label, 1 * MB),
        index=index,
        value=None if not ok else object(),
        failure=None if ok else CellFailure("BoomError", "boom"),
        duration_s=duration_s,
    )


class TestCellTiming:
    def test_empty_run_is_all_zeros(self):
        timing = CellTiming.from_outcomes(())
        assert timing.count == 0
        assert timing.total_s == 0.0
        assert timing.slowest == ""

    def test_max_mean_and_slowest_label(self):
        timing = CellTiming.from_outcomes(
            (_outcome("akamai", 1.0), _outcome("fastly", 3.0), _outcome("gcore", 2.0))
        )
        assert timing.count == 3
        assert timing.total_s == 6.0
        assert timing.max_s == 3.0
        assert timing.mean_s == 2.0
        assert "fastly" in timing.slowest

    def test_failed_cells_counted_and_broken_out(self):
        """A cell that burned 30 s before raising still burned 30 s."""
        timing = CellTiming.from_outcomes(
            (_outcome("akamai", 1.0), _outcome("broken", 30.0, ok=False))
        )
        assert timing.count == 2
        assert timing.failed_count == 1
        assert timing.total_s == 31.0
        assert timing.max_s == 30.0
        assert timing.ok_s == 1.0
        assert timing.failed_s == 30.0
        assert "broken" in timing.slowest

    def test_grid_result_cell_seconds_returns_the_stats(self):
        grid = sbr_grid(vendors=["akamai", "fastly"], sizes=(1 * MB,))
        result = GridRunner().run(grid)
        timing = result.cell_seconds()
        assert isinstance(timing, CellTiming)
        assert timing.count == 2
        assert timing.failed_count == 0
        assert timing.total_s >= timing.max_s >= timing.mean_s > 0
        assert timing.slowest in [o.cell.label for o in result]


class TestCollectedRuns:
    GRID = staticmethod(
        lambda: sbr_grid(vendors=["gcore", "keycdn"], sizes=(1 * MB,))
    )

    def test_collect_attaches_observations(self):
        result = GridRunner(collect=True).run(self.GRID())
        for outcome in result:
            assert outcome.obs is not None
            assert outcome.obs.spans
            assert outcome.obs.events
            assert outcome.obs.metrics

    def test_collect_does_not_change_values(self):
        plain = GridRunner().run(self.GRID())
        clear_all_memos()
        collected = GridRunner(collect=True).run(self.GRID())
        assert plain == collected  # obs excluded from equality by design
        assert [o.value for o in plain] == [o.value for o in collected]

    def test_span_ids_namespaced_per_cell(self):
        result = GridRunner(collect=True).run(self.GRID())
        for outcome in result:
            prefix = f"c{outcome.index}."
            assert all(s.span_id.startswith(prefix) for s in outcome.obs.spans)
            roots = [s for s in outcome.obs.spans if s.parent_id is None]
            assert [r.name for r in roots] == ["runner.cell"]
            assert roots[0].attributes["ok"] is True

    def test_failed_cell_still_observed(self):
        grid = ExperimentGrid("oops", [sbr_cell("nonexistent-vendor", 1 * MB)])
        result = GridRunner(collect=True).run(grid)
        (outcome,) = result
        assert not outcome.ok
        assert outcome.obs is not None
        (root,) = [s for s in outcome.obs.spans if s.parent_id is None]
        assert root.attributes["ok"] is False
        assert "nonexistent-vendor" in root.attributes["error"]

    def test_cell_metrics_reconcile_with_cell_events(self):
        """Per-cell byte counters equal the totals of that same cell's
        trace events — exactly for SBR, and for a pinned OBR cell too
        (no hidden max-n probes)."""
        grid = ExperimentGrid(
            "reconcile",
            [
                sbr_cell("gcore", 1 * MB),
                obr_cell("cloudflare", "akamai", overlap_count=20),
            ],
        )
        result = GridRunner(collect=True).run(grid)
        for outcome in result:
            totals = summarize(outcome.obs.events)
            registry = MetricsRegistry()
            registry.merge_snapshot(outcome.obs.metrics)
            assert totals  # every cell emitted events
            for name, key in BYTE_COUNTERS:
                counter = registry.counter(name)
                for segment, bucket in totals.items():
                    assert counter.value(segment=segment) == bucket[key], (
                        f"{outcome.cell.label}: {name}[{segment}]"
                    )


class TestObserver:
    def test_observer_sees_every_cell_once_serial(self):
        calls = []
        runner = GridRunner(
            observer=lambda o, done, total: calls.append((o, done, total))
        )
        result = runner.run(self.grid())
        assert [done for _, done, _ in calls] == [1, 2, 3]
        assert {total for _, _, total in calls} == {3}
        # Notification order is grid order.
        assert [o.index for o, _, _ in calls] == [o.index for o in result]

    @staticmethod
    def grid():
        return sbr_grid(vendors=["akamai", "fastly", "gcore"], sizes=(1 * MB,))


class TestRunAllHarvest:
    """The --trace/--metrics/--profile integration bar, on a trimmed
    quick grid (one SBR vendor; the two quick OBR cascades stay)."""

    @pytest.fixture(scope="class")
    def report(self):
        clear_all_memos()
        return run_all(quick=True, vendors=["gcore"], collect_obs=True)

    def test_profile_lists_every_grid_cell(self, report):
        grid = build_run_all_grid(vendors=["gcore"], quick=True)
        assert [c.label for c in report.cells] == [c.label for c in grid.cells]
        assert len(report.cells) == report.cell_count
        assert all(cell.ok for cell in report.cells)

    def test_timing_by_experiment_partitions_the_run(self, report):
        assert set(report.timing_by_experiment) == {"sbr", "obr", "ccfc", "flood"}
        assert (
            sum(t.count for t in report.timing_by_experiment.values())
            == report.timing.count
            == report.cell_count
        )
        assert report.timing.max_s >= max(
            t.max_s for t in report.timing_by_experiment.values()
        )

    def test_spans_link_up_within_each_cell(self, report):
        assert report.spans
        by_id = {span.span_id: span for span in report.spans}
        for span in report.spans:
            if span.parent_id is None:
                assert span.name == "runner.cell"
                continue
            parent = by_id[span.parent_id]  # KeyError = broken linkage
            assert parent.trace_id == span.trace_id

    def test_events_join_spans_and_merged_metrics_cover_them(self, report):
        """Merged segment counters >= the merged event totals: OBR max-n
        probe exchanges hit the counters but never produce report
        events, so the metrics side dominates (per-cell exactness is
        pinned in TestCollectedRuns)."""
        span_ids = {span.span_id for span in report.spans}
        assert report.events
        assert all(e.span_id in span_ids for e in report.events)
        registry = MetricsRegistry()
        registry.merge_snapshot(report.metrics)
        totals = summarize(report.events)
        assert CLIENT_CDN in totals and CDN_ORIGIN in totals
        for name, key in BYTE_COUNTERS:
            counter = registry.counter(name)
            for segment, bucket in totals.items():
                assert counter.value(segment=segment) >= bucket[key]

    def test_cell_counter_matches_cell_count(self, report):
        registry = MetricsRegistry()
        registry.merge_snapshot(report.metrics)
        assert (
            registry.counter("repro_runner_cells_total").value(status="ok")
            == report.cell_count
        )
