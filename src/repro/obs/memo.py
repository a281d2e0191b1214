"""Named, bounded memo tables whose lookups are metered.

:class:`Memo` is a small bounded insertion-order cache with hit/miss
statistics.  Caches are per-process and affect only speed, never
results.

Named memos report every lookup to the context's active
:class:`~repro.obs.metrics.MetricsRegistry`
(``repro_memo_lookups_total{memo=...,result=hit|miss}``); the runner
snapshots per-cell registries and merges them, so an observability run
shows the run's hit/miss split.
Named memos also register in a module-level index so
:func:`clear_all_memos` and :func:`memo_stats` see every table.

This module imports nothing beyond :mod:`repro.obs.metrics`, so any
layer (the analysis bounds included) can hold a memo without importing
the experiment runner.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, Optional, Sequence, Tuple

from repro.obs.metrics import current_metrics

DEFAULT_MAXSIZE = 1024

#: Module-level index of named memo tables (name -> Memo).
_MEMOS: Dict[str, "Memo"] = {}


@dataclass
class MemoStats:
    """Hit/miss counters for one :class:`Memo`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class Memo:
    """A bounded, thread-safe memo table.

    Eviction is FIFO (oldest insertion first) — the sweeps iterate their
    grids once, so recency tracking would buy nothing over plain
    insertion order.
    """

    def __init__(self, maxsize: int = DEFAULT_MAXSIZE, name: Optional[str] = None) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self.name = name
        self.stats = MemoStats()
        self._table: Dict[Hashable, Any] = {}
        self._lock = threading.Lock()
        if name is not None:
            _MEMOS[name] = self

    def _record(self, hit: bool) -> None:
        if self.name is None:
            return
        registry = current_metrics()
        if registry is not None:
            registry.record_memo_lookup(self.name, hit)

    def get_or_compute(
        self,
        key: Hashable,
        compute: Callable[[], Any],
        keep: Optional[Callable[[Any], bool]] = None,
    ) -> Any:
        """Return the cached value for ``key``, computing it on a miss.

        ``keep``, when given, decides whether a computed value is stored
        (a table bounded in entries can then bound each entry's size
        too); the miss is counted either way.  A ``compute`` that raises
        stores nothing."""
        with self._lock:
            if key in self._table:
                self.stats.hits += 1
                value = self._table[key]
                self._record(hit=True)
                return value
        # Compute outside the lock: measurements can be slow, and a
        # duplicate computation is merely wasted work, never wrong.  A
        # racing duplicate returns the value stored first, so callers
        # of one key share one object.
        value = compute()
        return self._store(key, value, keep is None or keep(value))

    def get_or_compute_under(
        self,
        keys: Sequence[Hashable],
        compute: Callable[[], Tuple[Any, Hashable]],
    ) -> Any:
        """Return the value cached under the first of ``keys`` present.

        On a miss ``compute`` returns the value *and* the key to store
        it under, so an answer that turned out not to depend on some
        input can go under a key without it.  One lookup is recorded
        either way."""
        with self._lock:
            for key in keys:
                if key in self._table:
                    self.stats.hits += 1
                    value = self._table[key]
                    self._record(hit=True)
                    return value
        value, key = compute()
        return self._store(key, value)

    def peek(self, key: Hashable) -> Any:
        """The value cached under ``key``, or ``None``; records no lookup."""
        with self._lock:
            return self._table.get(key)

    def _store(self, key: Hashable, value: Any, keep: bool = True) -> Any:
        """Insert a computed miss (FIFO eviction), count the miss, and
        return what ``key`` holds now: a racing computation's value if
        it stored first, else ``value``."""
        with self._lock:
            if keep and key not in self._table:
                if len(self._table) >= self.maxsize:
                    oldest = next(iter(self._table))
                    del self._table[oldest]
                    self.stats.evictions += 1
                self._table[key] = value
            stored = self._table.get(key, value)
            self.stats.misses += 1
        self._record(hit=False)
        return stored

    def clear(self) -> None:
        with self._lock:
            self._table.clear()
            self.stats = MemoStats()

    def __len__(self) -> int:
        return len(self._table)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._table


def memo_stats() -> Dict[str, MemoStats]:
    """This process's stats for every named memo (name -> stats)."""
    return {name: memo.stats for name, memo in sorted(_MEMOS.items())}


def clear_all_memos() -> None:
    """Reset every named memo (test isolation helper)."""
    for memo in _MEMOS.values():
        memo.clear()
