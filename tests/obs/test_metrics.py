"""Tests for the metrics registry: instruments, snapshots, merging, and
Prometheus rendering."""

import json

import pytest

from repro.obs.metrics import (
    AMPLIFICATION_BUCKETS,
    FASTPATH_CELLS,
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
    current_metrics,
    use_metrics,
)


class TestCounter:
    def test_inc_accumulates_per_label_set(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits")
        counter.inc(segment="a")
        counter.inc(2, segment="a")
        counter.inc(segment="b")
        assert counter.value(segment="a") == 3
        assert counter.value(segment="b") == 1
        assert counter.value(segment="missing") == 0

    def test_counter_rejects_decrease(self):
        with pytest.raises(MetricError):
            MetricsRegistry().counter("c").inc(-1)

    def test_get_or_create_returns_same_instance(self):
        registry = MetricsRegistry()
        assert registry.counter("c") is registry.counter("c")

    def test_type_clash_raises(self):
        registry = MetricsRegistry()
        registry.counter("c")
        with pytest.raises(MetricError):
            registry.gauge("c")


class TestGauge:
    def test_set_last_write_wins(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(5, node="x")
        gauge.set(3, node="x")
        assert gauge.value(node="x") == 3

    def test_inc_adjusts(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.inc(2)
        gauge.inc(-0.5)
        assert gauge.value() == 1.5


class TestHistogram:
    def test_observe_buckets_and_sum(self):
        histogram = MetricsRegistry().histogram("h", buckets=(1.0, 10.0))
        for value in (0.5, 5.0, 50.0):
            histogram.observe(value)
        assert histogram.count() == 3
        assert histogram.sum() == 55.5
        (sample,) = histogram.samples()
        assert sample["buckets"] == [1, 1, 1]  # <=1, <=10, +Inf overflow

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(MetricError):
            MetricsRegistry().histogram("h", buckets=(5.0, 1.0))


class TestSnapshotAndMerge:
    def _populated(self):
        registry = MetricsRegistry()
        registry.counter("bytes", "help text").inc(100, segment="client-cdn")
        registry.gauge("depth").set(4)
        registry.histogram("lat", buckets=(1.0,)).observe(0.5)
        return registry

    def test_snapshot_is_json_serializable_and_ordered(self):
        snapshot = self._populated().snapshot()
        assert list(snapshot) == sorted(snapshot)
        json.dumps(snapshot)  # must not raise

    def test_merge_adds_counters_and_histograms(self):
        a, b = self._populated(), self._populated()
        a.merge_snapshot(b.snapshot())
        assert a.counter("bytes").value(segment="client-cdn") == 200
        assert a.histogram("lat", buckets=(1.0,)).count() == 2
        assert a.gauge("depth").value() == 4  # last-wins, not additive

    def test_merge_into_empty_reconstructs(self):
        source = self._populated()
        target = MetricsRegistry()
        target.merge_snapshot(source.snapshot())
        assert target.snapshot() == source.snapshot()

    def test_merge_bucket_mismatch_raises(self):
        target = MetricsRegistry()
        target.histogram("lat", buckets=(1.0, 2.0))
        source = MetricsRegistry()
        source.histogram("lat", buckets=(1.0,)).observe(0.5)
        snapshot = source.snapshot()
        snapshot["lat"]["bucket_bounds"] = [1.0, 2.0]  # lie about bounds
        with pytest.raises(MetricError):
            target.merge_snapshot(snapshot)

    def test_merge_unknown_type_raises(self):
        with pytest.raises(MetricError):
            MetricsRegistry().merge_snapshot({"x": {"type": "summary"}})

    def test_merge_same_length_different_bounds_raises(self):
        # Same bucket *count* but different bounds used to merge
        # silently, corrupting the distribution; now any bound
        # disagreement is refused.
        target = MetricsRegistry()
        target.histogram("lat", buckets=(1.0, 2.0)).observe(0.5)
        source = MetricsRegistry()
        source.histogram("lat", buckets=(1.0, 5.0)).observe(3.0)
        with pytest.raises(MetricError):
            target.merge_snapshot(source.snapshot())

    def test_merge_counter_into_gauge_raises(self):
        target = MetricsRegistry()
        target.gauge("x").set(1)
        source = MetricsRegistry()
        source.counter("x").inc(1)
        with pytest.raises(MetricError):
            target.merge_snapshot(source.snapshot())

    def test_merge_gauge_into_counter_raises(self):
        target = MetricsRegistry()
        target.counter("x").inc(1)
        source = MetricsRegistry()
        source.gauge("x").set(1)
        with pytest.raises(MetricError):
            target.merge_snapshot(source.snapshot())

    def test_merge_histogram_into_counter_raises(self):
        target = MetricsRegistry()
        target.counter("x").inc(1)
        source = MetricsRegistry()
        source.histogram("x", buckets=(1.0,)).observe(0.5)
        with pytest.raises(MetricError):
            target.merge_snapshot(source.snapshot())

    def test_merge_disjoint_label_sets_keeps_both(self):
        target = MetricsRegistry()
        target.counter("hits").inc(2, vendor="akamai")
        source = MetricsRegistry()
        source.counter("hits").inc(3, vendor="fastly")
        target.merge_snapshot(source.snapshot())
        counter = target.counter("hits")
        assert counter.value(vendor="akamai") == 2
        assert counter.value(vendor="fastly") == 3

    def test_merge_disjoint_histogram_labels_keeps_both(self):
        target = MetricsRegistry()
        target.histogram("lat", buckets=(1.0,)).observe(0.5, segment="a")
        source = MetricsRegistry()
        source.histogram("lat", buckets=(1.0,)).observe(2.0, segment="b")
        target.merge_snapshot(source.snapshot())
        histogram = target.histogram("lat", buckets=(1.0,))
        assert histogram.count(segment="a") == 1
        assert histogram.count(segment="b") == 1

    def test_redeclaring_histogram_with_other_bounds_raises(self):
        registry = MetricsRegistry()
        registry.histogram("lat", buckets=(1.0, 2.0))
        with pytest.raises(MetricError):
            registry.histogram("lat", buckets=(1.0, 3.0))


class TestPrometheusRender:
    def test_counter_and_gauge_lines(self):
        registry = MetricsRegistry()
        registry.counter("repro_hits_total", "hits").inc(3, vendor="akamai")
        registry.gauge("repro_depth").set(2.5)
        text = registry.to_prometheus()
        assert "# TYPE repro_hits_total counter" in text
        assert '# HELP repro_hits_total hits' in text
        assert 'repro_hits_total{vendor="akamai"} 3' in text
        assert "repro_depth 2.5" in text
        assert text.endswith("\n")

    def test_histogram_cumulative_buckets(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("repro_lat", buckets=(1.0, 10.0))
        for value in (0.5, 5.0, 50.0):
            histogram.observe(value)
        text = registry.to_prometheus()
        assert 'repro_lat_bucket{le="1"} 1' in text
        assert 'repro_lat_bucket{le="10"} 2' in text
        assert 'repro_lat_bucket{le="+Inf"} 3' in text
        assert "repro_lat_sum 55.5" in text
        assert "repro_lat_count 3" in text

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(1, note='say "hi"\\now')
        line = registry.to_prometheus().splitlines()[-1]
        assert '\\"hi\\"' in line
        assert "\\\\now" in line

    def test_newline_in_label_value_escaped(self):
        # A literal newline in a label value would tear the exposition
        # line in two; it must render as the two characters backslash-n.
        registry = MetricsRegistry()
        registry.counter("c").inc(1, note="line1\nline2")
        text = registry.to_prometheus()
        (sample_line,) = [
            line for line in text.splitlines() if not line.startswith("#")
        ]
        assert '\\nline2' in sample_line
        assert "\n" not in sample_line

    def test_newline_and_backslash_in_help_escaped(self):
        registry = MetricsRegistry()
        registry.counter("c", "first\nsecond \\ third").inc(1)
        text = registry.to_prometheus()
        (help_line,) = [
            line for line in text.splitlines() if line.startswith("# HELP")
        ]
        assert help_line == "# HELP c first\\nsecond \\\\ third"


class TestConvenienceRecorders:
    def test_record_cache_and_rewrite_and_amplification(self):
        registry = MetricsRegistry()
        registry.record_cache_lookup("akamai", hit=True)
        registry.record_cache_lookup("akamai", hit=False)
        registry.record_rewrite("akamai", "deletion")
        registry.record_amplification(43000.0, "cdn-origin")
        registry.record_cell("sbr", 0.25, ok=True)
        registry.record_cell("obr", 1.5, ok=False)
        snapshot = registry.snapshot()
        hits = registry.counter("repro_cache_lookups_total")
        assert hits.value(vendor="akamai", result="hit") == 1
        assert hits.value(vendor="akamai", result="miss") == 1
        assert (
            registry.counter("repro_range_rewrites_total").value(
                vendor="akamai", policy="deletion"
            )
            == 1
        )
        amp = snapshot["repro_amplification_factor"]
        assert amp["bucket_bounds"] == list(AMPLIFICATION_BUCKETS)
        assert amp["samples"][0]["count"] == 1
        cells = registry.counter("repro_runner_cells_total")
        assert cells.value(status="ok") == 1
        assert cells.value(status="failed") == 1


class TestFastPathCounter:
    def test_record_fastpath_cells_by_outcome(self):
        registry = MetricsRegistry()
        registry.record_fastpath_cells("answered", 41)
        registry.record_fastpath_cells("refused")
        registry.record_fastpath_cells("ineligible", 5)
        counter = registry.counter(FASTPATH_CELLS)
        assert counter.value(outcome="answered") == 41
        assert counter.value(outcome="refused") == 1
        assert counter.value(outcome="ineligible") == 5


class TestContextPropagation:
    def test_default_is_none(self):
        assert current_metrics() is None

    def test_use_metrics_installs_and_restores(self):
        registry = MetricsRegistry()
        with use_metrics(registry) as active:
            assert active is registry
            assert current_metrics() is registry
        assert current_metrics() is None


def test_instrument_classes_exported():
    assert Counter("c").type_name == "counter"
    assert Gauge("g").type_name == "gauge"
    assert Histogram("h").type_name == "histogram"
