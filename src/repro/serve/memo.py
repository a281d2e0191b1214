"""Bounded shared memoization for the service's hot lookups.

A long-running service cannot let caches grow with the union of every
request it ever saw.  :class:`SharedMemoRegistry` owns a fixed handful
of named :class:`~repro.obs.memo.Memo` tables and splits one global
entry budget across them, so total cached objects stay bounded no
matter what clients ask for.  Because the tables are named, every
lookup already flows into ``repro_memo_lookups_total`` via the ambient
metrics registry; :meth:`export` adds point-in-time entry/eviction/hit
gauges per table for the ``/metrics`` endpoint.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable

from repro.obs.metrics import (
    SERVE_MEMO_ENTRIES,
    SERVE_MEMO_EVICTIONS,
    SERVE_MEMO_HIT_RATE,
    MetricsRegistry,
)
from repro.obs.memo import Memo, MemoStats

#: The analysis service's table names.
TABLES = ("findings", "recommendations", "exact")


class SharedMemoRegistry:
    """A fixed set of named memo tables under one entry budget."""

    def __init__(self, total_entries: int = 4096) -> None:
        if total_entries < len(TABLES):
            raise ValueError(
                f"total_entries={total_entries} cannot cover "
                f"{len(TABLES)} tables"
            )
        per_table = total_entries // len(TABLES)
        self.total_entries = total_entries
        self._tables: Dict[str, Memo] = {
            name: Memo(maxsize=per_table, name=f"serve_{name}") for name in TABLES
        }

    def table(self, name: str) -> Memo:
        return self._tables[name]

    def get_or_compute(
        self, table: str, key: Hashable, compute: Callable[[], Any]
    ) -> Any:
        return self._tables[table].get_or_compute(key, compute)

    def peek(self, table: str, key: Hashable) -> Any:
        return self._tables[table].peek(key)

    def entries(self) -> int:
        """Total cached objects across every table."""
        return sum(len(memo) for memo in self._tables.values())

    def stats(self) -> Dict[str, MemoStats]:
        return {name: memo.stats for name, memo in sorted(self._tables.items())}

    def clear(self) -> None:
        for memo in self._tables.values():
            memo.clear()

    def export(self, registry: MetricsRegistry) -> None:
        """Write per-table entry/eviction/hit-rate gauges into ``registry``."""
        entries = registry.gauge(SERVE_MEMO_ENTRIES, "cached entries per memo table")
        evictions = registry.gauge(
            SERVE_MEMO_EVICTIONS, "cumulative evictions per memo table"
        )
        hit_rate = registry.gauge(SERVE_MEMO_HIT_RATE, "lifetime hit rate per memo table")
        for name, memo in sorted(self._tables.items()):
            entries.set(float(len(memo)), memo=name)
            evictions.set(float(memo.stats.evictions), memo=name)
            hit_rate.set(memo.stats.hit_rate, memo=name)
