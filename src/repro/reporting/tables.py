"""Structured regeneration of the paper's Tables I–III from one
feasibility survey (:func:`survey_tables` lays them out).

The measured tables (IV–VI, Figs 6a and 7, CCFC) are built straight
from run-all's grid values: each attack family's by its
:attr:`~repro.families.base.AttackFamily.sweep`, the rest by
:mod:`repro.runner.runall`."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.cdn.vendors import profile_class
from repro.reporting.render import Table

if TYPE_CHECKING:
    from repro.core.feasibility import VendorFeasibility


# ---------------------------------------------------------------------------
# Table I — range forwarding behaviors vulnerable to the SBR attack
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Table1Row:
    vendor: str
    display_name: str
    vulnerable: bool
    #: (range format, observed policy) pairs that amplify.
    vulnerable_formats: Tuple[Tuple[str, str], ...]


def table1_rows(feasibility: Dict[str, VendorFeasibility]) -> List[Table1Row]:
    """Table I from a feasibility survey: each vendor's forwarding verdict."""
    rows = []
    for name in sorted(feasibility):
        verdict = feasibility[name]
        rows.append(
            Table1Row(
                vendor=name,
                display_name=profile_class(name).display_name,
                vulnerable=verdict.sbr_vulnerable,
                vulnerable_formats=tuple(verdict.amplifying_formats()),
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Table II — forwarding behaviors vulnerable to the OBR attack (FCDN side)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Table2Row:
    vendor: str
    display_name: str
    #: Multi-range formats forwarded unchanged.
    lazy_formats: Tuple[str, ...]


def table2_rows(feasibility: Dict[str, VendorFeasibility]) -> List[Table2Row]:
    """Table II from a feasibility survey: vendors usable as the OBR front-end."""
    rows = []
    for name in sorted(feasibility):
        verdict = feasibility[name]
        if verdict.obr_fcdn_vulnerable:
            rows.append(
                Table2Row(
                    vendor=name,
                    display_name=profile_class(name).display_name,
                    lazy_formats=tuple(verdict.lazy_multi_formats()),
                )
            )
    return rows


# ---------------------------------------------------------------------------
# Table III — replying behaviors vulnerable to the OBR attack (BCDN side)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Table3Row:
    vendor: str
    display_name: str
    #: Part-count limit, if the vendor enforces one (Azure's 64).
    part_limit: Optional[int]


def table3_rows(feasibility: Dict[str, VendorFeasibility]) -> List[Table3Row]:
    """Table III from a feasibility survey: vendors usable as the OBR back-end."""
    rows = []
    for name in sorted(feasibility):
        verdict = feasibility[name]
        if verdict.obr_bcdn_vulnerable:
            assert verdict.reply is not None
            rows.append(
                Table3Row(
                    vendor=name,
                    display_name=profile_class(name).display_name,
                    part_limit=verdict.reply.part_limit,
                )
            )
    return rows


def survey_tables(feasibility: Dict[str, VendorFeasibility]) -> List[Table]:
    """Tables I–III as ``(stem, title, headers, rows)``, from one survey."""
    return [
        (
            "table1_sbr_feasibility",
            "Table I - range forwarding behaviors vulnerable to the SBR attack",
            ["CDN", "Vulnerable", "Format -> Policy"],
            [
                [
                    row.display_name,
                    "yes" if row.vulnerable else "no",
                    "; ".join(f"{f} ({p})" for f, p in row.vulnerable_formats),
                ]
                for row in table1_rows(feasibility)
            ],
        ),
        (
            "table2_obr_forwarding",
            "Table II - forwarding behaviors vulnerable to the OBR attack (FCDNs)",
            ["CDN", "Lazy Multi-Range Formats"],
            [
                [row.display_name, "; ".join(row.lazy_formats)]
                for row in table2_rows(feasibility)
            ],
        ),
        (
            "table3_obr_replying",
            "Table III - replying behaviors vulnerable to the OBR attack (BCDNs)",
            ["CDN", "Response Format"],
            [
                [
                    row.display_name,
                    "n-part response (overlapping)"
                    + (f", n <= {row.part_limit}" if row.part_limit else ""),
                ]
                for row in table3_rows(feasibility)
            ],
        ),
    ]
