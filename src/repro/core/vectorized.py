"""Exact fast-path engines, one per measurement family.

Every engine answers a cell with the wire-level simulation itself, so
every answer is exact by construction:

* :class:`SbrFastEngine` and :class:`CcfcFastEngine` return
  ``SbrAttack(...).run`` / ``CcfcAttack(...).run``;
* :class:`ObrFastEngine` returns ``ObrAttack(...).run`` at the overlap
  count asked for, or at the Table V maximum from
  :func:`repro.analysis.bounds.static_max_n` for a grid cell's
  "search".  Run-length multipart encoding makes a run at the
  thousands-deep maximum cost milliseconds.

Every engine refuses — raising :class:`ExactModelError` — a cell it
cannot answer exactly: an unknown vendor, a degenerate size, a CDN
cascaded with itself, or an OBR cascade whose front end forwards no
overlapping ranges unchanged (static max n of 0).  The caller
(``repro.runner.fastpath``) falls back to the grid runner, which
answers or fails the cell exactly as ``--exact`` would.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.cdn.vendors import all_vendor_names
from repro.core.ccfc import CcfcAttack, CcfcResult
from repro.core.obr import ObrAttack, ObrResult
from repro.core.sbr import SbrAttack, SbrResult
from repro.errors import ReproError


class ExactModelError(ReproError):
    """The engine cannot exactly answer this cell — simulate."""


def _check_cell(vendors: Sequence[str], resource_size: int, min_size: int) -> None:
    """Refuse what the simulation would reject: unknown vendors and
    degenerate sizes."""
    for vendor in vendors:
        if vendor not in all_vendor_names():
            raise ExactModelError(f"unknown vendor {vendor!r}")
    if resource_size < min_size:
        raise ExactModelError("degenerate cell")


class SbrFastEngine:
    """Answers SBR cells with the wire-level simulation."""

    def measure(self, vendor: str, resource_size: int) -> SbrResult:
        """``SbrAttack(vendor, resource_size).run()``."""
        _check_cell((vendor,), resource_size, 2)
        return SbrAttack(vendor, resource_size=resource_size).run()


class CcfcFastEngine:
    """Answers CCFC (compression-conversion) cells with the wire-level
    simulation."""

    def measure(self, vendor: str, resource_size: int) -> CcfcResult:
        """``CcfcAttack(vendor, resource_size).run()``."""
        _check_cell((vendor,), resource_size, 1)
        return CcfcAttack(vendor, resource_size=resource_size).run()


class ObrFastEngine:
    """Answers OBR cascade cells with the wire-level simulation."""

    def measure(
        self,
        fcdn: str,
        bcdn: str,
        resource_size: int = 1024,
        overlap_count: Optional[int] = None,
    ) -> ObrResult:
        """``ObrAttack(fcdn, bcdn, resource_size).run(n)``.

        ``overlap_count`` ``None`` or 0 (an OBR grid cell's "search")
        resolves the Table V maximum through
        :func:`repro.analysis.bounds.static_max_n`, memoized and shared
        with the static Table VII phase.  Wherever it is positive the
        simulated probe search agrees with it exactly (pinned by the
        cross-check and differential suites)."""
        from repro.analysis.bounds import static_max_n

        _check_cell((fcdn, bcdn), resource_size, 1)
        if fcdn == bcdn:
            raise ExactModelError(f"{fcdn} is not cascaded with itself")
        n = overlap_count or static_max_n(fcdn, bcdn, resource_size=resource_size)
        if n < 1:
            # Nothing is forwarded unchanged, but the wire probe search
            # may still admit some n (akamai -> alibaba does): simulate.
            raise ExactModelError(f"{fcdn} -> {bcdn} admits no overlapping ranges")
        return ObrAttack(fcdn, bcdn, resource_size=resource_size).run(overlap_count=n)


__all__ = [
    "CcfcFastEngine",
    "ExactModelError",
    "ObrFastEngine",
    "SbrFastEngine",
]
