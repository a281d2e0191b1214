"""Memoization for the sweep hot paths.

Two facts make the paper grids cheap to memoize:

* every measurement in this library is **deterministic** — the same
  (vendor, size, rounds) SBR cell always produces the same
  :class:`~repro.core.sbr.SbrResult`;
* the grids **overlap** — Table IV's 13 x 3 cells are a subset of
  Fig 6's 13 x 25 grid, and Fig 7's per-request traffic probe is exactly
  the Table IV cloudflare/10 MB cell.

:func:`measure_sbr` is the shared memoized SBR measurement the runner's
cell functions and ``run_all`` go through.  The tables are named
:class:`~repro.obs.memo.Memo` instances, so their lookups are metered
and reachable through :func:`memo_stats` / :func:`clear_all_memos`.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable, Tuple

from repro.obs.memo import (
    DEFAULT_MAXSIZE,
    Memo,
    MemoStats,
    clear_all_memos,
    memo_stats,
)

__all__ = [
    "DEFAULT_MAXSIZE",
    "Memo",
    "MemoStats",
    "clear_all_memos",
    "measure_ccfc",
    "measure_sbr",
    "memo_stats",
    "memoize",
    "sbr_per_request_traffic",
]


def memoize(maxsize: int = DEFAULT_MAXSIZE) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Decorator memoizing a function of hashable positional arguments.

    The memo table is exposed as ``wrapped.memo`` so tests and
    ``run_all`` can inspect hit rates or clear it.  It is named after
    the wrapped function, so its lookups surface in metrics and it is
    reachable through :func:`memo_stats` / :func:`clear_all_memos`.
    """

    def decorate(fn: Callable[..., Any]) -> Callable[..., Any]:
        memo = Memo(maxsize, name=fn.__name__)

        def wrapped(*args: Hashable) -> Any:
            return memo.get_or_compute(args, lambda: fn(*args))

        wrapped.memo = memo  # type: ignore[attr-defined]
        wrapped.__name__ = fn.__name__
        wrapped.__doc__ = fn.__doc__
        return wrapped

    return decorate


@memoize(maxsize=2048)
def measure_sbr(vendor: str, resource_size: int, rounds: int = 1) -> Any:
    """Memoized SBR measurement for one (vendor, size, rounds) cell.

    Returns the :class:`~repro.core.sbr.SbrResult`.  ``SbrAttack.run``
    builds a fresh deployment per call, so the result depends only on
    the arguments and caching is sound.
    """
    from repro.core.sbr import SbrAttack

    return SbrAttack(vendor, resource_size=resource_size).run(rounds=rounds)


@memoize(maxsize=2048)
def measure_ccfc(vendor: str, resource_size: int, rounds: int = 1) -> Any:
    """Memoized CCFC measurement for one (vendor, size, rounds) cell.

    Returns the :class:`~repro.core.ccfc.CcfcResult`.  ``CcfcAttack.run``
    builds a fresh deployment per call, so the result depends only on
    the arguments and caching is sound.
    """
    from repro.core.ccfc import CcfcAttack

    return CcfcAttack(vendor, resource_size=resource_size).run(rounds=rounds)


def sbr_per_request_traffic(vendor: str, resource_size: int) -> Tuple[int, int]:
    """(origin_bytes, client_bytes) one SBR round moves — memoized.

    This is Fig 7's step-1 probe; going through :func:`measure_sbr`
    means ``run_all`` reuses the Table IV / Fig 6 measurement instead of
    re-running the attack.
    """
    result = measure_sbr(vendor, resource_size)
    return (result.origin_traffic, result.client_traffic)
