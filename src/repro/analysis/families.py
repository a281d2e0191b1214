"""The attack-family registry: which families exist, in report order.

Each family is one module under :mod:`repro.families` — ``sbr`` (Small
Byte Range, paper §IV-B), ``obr`` (Overlapping Byte Ranges, §IV-C) and
``ccfc`` (compression format conversion, arXiv 2409.00712) — holding
its :class:`~repro.families.base.AttackFamily` record: finding,
mitigations and residuals, wire simulation, grid cell, run-all sweep
and tables, CLI size flag.  ``analyze_vendor_matrix``, ``recommend``,
``run_all``, the grid runner, the fast path, the CLI, the run ledger
and ``repro serve`` loop over :data:`FAMILIES` or look a family up in
:data:`FAMILIES_BY_NAME`, so adding a family is adding its module here.

Registry order is the order of the reports' size keys, the CLI's size
flags and summaries, and run-all's tables; findings are grouped by
subject shape first, so vendor findings come before cascade findings.
Importing the registry pulls in neither the runner nor the service.
"""

from __future__ import annotations

from typing import Dict, List, Mapping

from repro.errors import ConfigurationError
from repro.families import ccfc, obr, sbr
from repro.families.base import AttackFamily

FAMILIES: List[AttackFamily] = [sbr.FAMILY, obr.FAMILY, ccfc.FAMILY]

FAMILIES_BY_NAME: Dict[str, AttackFamily] = {family.name: family for family in FAMILIES}


def family_sizes(sizes: Mapping[str, int]) -> Dict[str, int]:
    """Each family's resource size by its size keyword, in registry
    order: the ones in ``sizes``, the family default for the rest."""
    known = {family.size_kwarg for family in FAMILIES}
    unknown = sorted(set(sizes) - known)
    if unknown:
        raise ConfigurationError(
            f"unknown size keyword(s) {', '.join(unknown)} (known: {sorted(known)})"
        )
    return {
        family.size_kwarg: sizes.get(family.size_kwarg, family.default_size)
        for family in FAMILIES
    }
