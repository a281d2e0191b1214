"""Memoization for the sweep hot paths.

Every measurement in this library is **deterministic**, and the paper
grids **overlap** (Table IV's 13 x 3 cells are a subset of Fig 6's
13 x 25 grid; Fig 7's per-request probe is the Table IV cloudflare/10 MB
cell), so the SBR and CCFC cell functions
(:func:`repro.families.sbr.measure_sbr`,
:func:`repro.families.ccfc.measure_ccfc`) go through named
:class:`~repro.obs.memo.Memo` tables.  Their lookups are metered and
reachable through :func:`memo_stats` / :func:`clear_all_memos`.
"""

from __future__ import annotations

from repro.obs.memo import Memo, MemoStats, clear_all_memos, memo_stats

__all__ = [
    "Memo",
    "MemoStats",
    "clear_all_memos",
    "memo_stats",
]
