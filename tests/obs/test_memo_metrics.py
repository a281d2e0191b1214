"""Memo lookups as metrics: visible in-process and across the pool.

Per-process memo stats die with their worker process, which used to
make memo effectiveness invisible in pooled runs (a sweep could silently
re-simulate every cell and nothing would notice).  Named memos now emit
``repro_memo_lookups_total{memo=...,result=hit|miss}`` to the context's
active registry; the runner snapshots per-cell registries across the
process boundary and merges them, so the pool-wide hit/miss split is
reconstructible from any collected run.
"""

from repro.core.sbr import sbr_grid
from repro.obs.metrics import MEMO_LOOKUPS, MetricsRegistry, use_metrics
from repro.runner.executor import GridRunner
from repro.families.sbr import measure_sbr
from repro.runner.memo import Memo, clear_all_memos, memo_stats

MB = 1 << 20


def _lookups(registry, memo, result):
    return registry.counter(MEMO_LOOKUPS).value(memo=memo, result=result)


class TestMemoRecording:
    def test_named_memo_records_hit_and_miss(self):
        memo = Memo(maxsize=4, name="test_memo_records")
        registry = MetricsRegistry()
        with use_metrics(registry):
            memo.get_or_compute("k", lambda: 1)
            memo.get_or_compute("k", lambda: 1)
        assert _lookups(registry, "test_memo_records", "miss") == 1
        assert _lookups(registry, "test_memo_records", "hit") == 1

    def test_unnamed_memo_stays_silent(self):
        memo = Memo(maxsize=4)
        registry = MetricsRegistry()
        with use_metrics(registry):
            memo.get_or_compute("k", lambda: 1)
            memo.get_or_compute("k", lambda: 1)
        assert MEMO_LOOKUPS not in registry
        assert memo.stats.hits == 1  # local stats still track

    def test_no_active_registry_is_free(self):
        memo = Memo(maxsize=4, name="test_memo_silent")
        memo.get_or_compute("k", lambda: 1)
        memo.get_or_compute("k", lambda: 1)
        assert memo.stats.lookups == 2  # and nothing raised

    def test_measure_sbr_reports_to_registry_and_stats(self):
        clear_all_memos()
        registry = MetricsRegistry()
        with use_metrics(registry):
            first = measure_sbr("gcore", 1 * MB)
            second = measure_sbr("gcore", 1 * MB)
        assert first is second
        assert _lookups(registry, "measure_sbr", "miss") == 1
        assert _lookups(registry, "measure_sbr", "hit") == 1
        stats = memo_stats()["measure_sbr"]
        assert stats.misses == 1
        assert stats.hits == 1

    def test_static_max_n_reports_to_registry_and_stats(self):
        from repro.analysis.bounds import static_max_n

        clear_all_memos()
        registry = MetricsRegistry()
        with use_metrics(registry):
            first = static_max_n("cloudflare", "akamai", resource_size=777)
            second = static_max_n("cloudflare", "akamai", resource_size=777)
        assert first == second > 0
        assert _lookups(registry, "static_max_n", "miss") == 1
        assert _lookups(registry, "static_max_n", "hit") == 1
        stats = memo_stats()["static_max_n"]
        assert (stats.misses, stats.hits) == (1, 1)

    def test_named_memos_are_enumerable(self):
        assert "measure_sbr" in memo_stats()


class TestCrossProcessMerge:
    def test_pooled_run_reconstructs_lookup_totals(self):
        """Two workers, four distinct SBR cells: the merged snapshots
        must account for exactly one memo lookup per cell, even though
        each worker warmed (and discarded) its own table."""
        clear_all_memos()
        grid = sbr_grid(["gcore"], (1 * MB, 2 * MB, 3 * MB, 4 * MB))
        result = GridRunner(workers=2, collect=True).run(grid)

        merged = MetricsRegistry()
        for outcome in result:
            assert outcome.obs is not None
            merged.merge_snapshot(outcome.obs.metrics)

        misses = _lookups(merged, "measure_sbr", "miss")
        hits = _lookups(merged, "measure_sbr", "hit")
        assert misses + hits == len(grid)
        # The parent's tables were cleared and every cell key is
        # distinct, so no worker can have seen a key twice.
        assert misses == len(grid)

    def test_run_all_collect_surfaces_memo_metrics(self):
        from repro.runner.runall import run_all

        clear_all_memos()
        report = run_all(workers=1, quick=True, vendors=["gcore"], collect_obs=True)
        samples = report.metrics[MEMO_LOOKUPS]["samples"]
        by_labels = {
            (s["labels"]["memo"], s["labels"]["result"]): s["value"]
            for s in samples
        }
        # Quick/gcore runs three distinct fig6 SBR cells (Table IV's
        # 1 MB cell dedupes into them); the flood cells carry a pinned
        # per-request probe and never consult the memo.
        assert by_labels[("measure_sbr", "miss")] == 3
        assert ("measure_sbr", "hit") not in by_labels
