"""Memo lookups as metrics: visible in-process and in collected runs.

Named memos emit ``repro_memo_lookups_total{memo=...,result=hit|miss}``
to the context's active registry; a collecting grid run snapshots each
cell's registry and ``run_all`` merges them, so the run's hit/miss split
is reconstructible from any collected run (a sweep that silently
re-simulated every cell would show up as all misses).
"""

import sys
import threading

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

    def test_get_or_compute_under_stores_where_compute_says(self):
        memo = Memo(maxsize=4, name="test_memo_under")
        registry = MetricsRegistry()
        with use_metrics(registry):
            assert memo.get_or_compute_under(("wide", "narrow"), lambda: (1, "wide")) == 1
            assert memo.get_or_compute_under(("wide", "other"), lambda: (2, "other")) == 1
            assert memo.get_or_compute_under(("x", "narrow"), lambda: (3, "narrow")) == 3
        assert "wide" in memo and "narrow" in memo and "other" not in memo
        assert _lookups(registry, "test_memo_under", "miss") == 2
        assert _lookups(registry, "test_memo_under", "hit") == 1

    def test_concurrent_max_n_lookups_agree_with_cold_searches(self):
        from repro.analysis.bounds import static_max_n
        from repro.core.obr import vulnerable_combinations

        asks = [
            (fcdn, bcdn, size)
            for fcdn, bcdn in [*vulnerable_combinations(), ("huawei", "akamai")]
            for size in (700, 1024, 9000)
        ]
        clear_all_memos()
        cold = {ask: static_max_n(ask[0], ask[1], resource_size=ask[2]) for ask in asks}
        clear_all_memos()
        answers = []

        def worker(offset):
            for index in range(len(asks)):
                fcdn, bcdn, size = asks[(index + offset) % len(asks)]
                found = static_max_n(fcdn, bcdn, resource_size=size)
                answers.append(((fcdn, bcdn, size), found))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k * 5,)) for k in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(answers) == 6 * len(asks)
        assert all(found == cold[ask] for ask, found in answers)
        assert memo_stats()["static_max_n"].lookups == len(answers)

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


class TestSnapshotMerge:
    def test_merged_cell_snapshots_count_one_lookup_per_cell(self):
        """Four distinct SBR cells: the merged per-cell snapshots must
        account for exactly one memo lookup per cell."""
        clear_all_memos()
        grid = sbr_grid(["gcore"], (1 * MB, 2 * MB, 3 * MB, 4 * MB))
        result = GridRunner(collect=True).run(grid)

        merged = MetricsRegistry()
        for outcome in result:
            assert outcome.obs is not None
            merged.merge_snapshot(outcome.obs.metrics)

        misses = _lookups(merged, "measure_sbr", "miss")
        hits = _lookups(merged, "measure_sbr", "hit")
        assert misses + hits == len(grid)
        # The tables were cleared and every cell key is distinct, so no
        # lookup can have hit.
        assert misses == len(grid)

    def test_run_all_collect_surfaces_memo_metrics(self):
        from repro.runner.runall import run_all

        clear_all_memos()
        report = run_all(quick=True, vendors=["gcore"], collect_obs=True)
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
