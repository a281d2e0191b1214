"""One module per attack family.

:mod:`repro.families.base` says what a family declares; ``sbr``,
``obr`` and ``ccfc`` each build one
:class:`~repro.families.base.AttackFamily` record, and
:mod:`repro.analysis.families` lists them.
"""

from __future__ import annotations
