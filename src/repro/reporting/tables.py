"""Structured regeneration of the paper's Tables I–V, plus the faulted
re-amplification table (Table VI) this reproduction adds on top.

Tables I–III come from one feasibility survey (:func:`survey_tables`
lays them out); every other table is assembled from grid results by a
``*_from_results`` function."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.cdn.vendors import profile_class
from repro.core.feasibility import VendorFeasibility
from repro.core.obr import ObrAttack
from repro.core.sbr import exploited_range_cases
from repro.reporting.render import Table

MB = 1 << 20


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


# ---------------------------------------------------------------------------
# Table IV — SBR amplification factor vs resource size
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Table4Row:
    vendor: str
    display_name: str
    exploited_cases: Tuple[str, ...]
    #: resource size (bytes) -> measured amplification factor.
    factors: Dict[int, float]
    #: resource size (bytes) -> client-side response traffic (bytes).
    client_traffic: Dict[int, int]
    #: resource size (bytes) -> origin-side response traffic (bytes).
    origin_traffic: Dict[int, int]


def table4_rows_from_results(
    results: Dict[Tuple[str, int], Any],
    vendors: Sequence[str],
    sizes: Sequence[int],
) -> List[Table4Row]:
    """Assemble Table IV rows from (vendor, size) -> SbrResult mappings."""
    return [
        Table4Row(
            vendor=name,
            display_name=profile_class(name).display_name,
            exploited_cases=tuple(exploited_range_cases(name, max(sizes))),
            factors=_by_size(results, name, sizes, "amplification"),
            client_traffic=_by_size(results, name, sizes, "client_traffic"),
            origin_traffic=_by_size(results, name, sizes, "origin_traffic"),
        )
        for name in vendors
    ]


def _by_size(
    results: Dict[Tuple[str, int], Any], vendor: str, sizes: Sequence[int], field: str
) -> Dict[int, Any]:
    """One vendor's ``field`` of each (vendor, size) result, by size."""
    return {size: getattr(results[(vendor, size)], field) for size in sizes}


# ---------------------------------------------------------------------------
# CCFC table (ours) — compression-conversion amplification per vendor
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CcfcTableRow:
    """One vendor of the compression-conversion sweep (arXiv 2409.00712)."""

    vendor: str
    display_name: str
    #: Upstream coding the edge negotiated at the largest size (``None``
    #: when the vendor never rewrites or the origin serves identity).
    encoding: Optional[str]
    #: resource size (bytes) -> measured amplification factor.
    factors: Dict[int, float]
    #: resource size (bytes) -> client-side response traffic (bytes).
    client_traffic: Dict[int, int]
    #: resource size (bytes) -> origin-side response traffic (bytes).
    origin_traffic: Dict[int, int]


def ccfc_rows_from_results(
    results: Dict[Tuple[str, int], Any],
    vendors: Sequence[str],
    sizes: Sequence[int],
) -> List[CcfcTableRow]:
    """Assemble CCFC rows from (vendor, size) -> CcfcResult mappings."""
    return [
        CcfcTableRow(
            vendor=name,
            display_name=profile_class(name).display_name,
            encoding=results[(name, max(sizes))].encoding,
            factors=_by_size(results, name, sizes, "amplification"),
            client_traffic=_by_size(results, name, sizes, "client_traffic"),
            origin_traffic=_by_size(results, name, sizes, "origin_traffic"),
        )
        for name in vendors
    ]


# ---------------------------------------------------------------------------
# Table VI (ours) — SBR re-amplification under faults and vendor retries
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FaultTableRow:
    """One vendor/size cell of the faulted-SBR table."""

    vendor: str
    display_name: str
    resource_size: int
    seed: int
    clean_factor: float
    faulted_factor: float
    #: Faulted origin bytes over clean origin bytes (>1 = retries
    #: re-shipped fetch windows).
    reamplification: float
    retries: int
    faults: int
    exhausted_fetches: int
    max_attempts: int


def fault_rows_from_results(
    results: Dict[Tuple[Any, ...], Any],
    vendors: Sequence[str],
    sizes: Sequence[int],
    seed: int,
) -> List[FaultTableRow]:
    """Assemble the faulted table from (vendor, size, seed) -> FaultedSbrResult."""
    rows = []
    for name in vendors:
        for size in sizes:
            result = results[(name, size, seed)]
            rows.append(
                FaultTableRow(
                    vendor=name,
                    display_name=profile_class(name).display_name,
                    resource_size=size,
                    seed=seed,
                    clean_factor=result.clean_amplification,
                    faulted_factor=result.amplification,
                    reamplification=result.reamplification,
                    retries=result.retries,
                    faults=result.total_faults,
                    exhausted_fetches=result.exhausted_fetches,
                    max_attempts=result.max_attempts,
                )
            )
    return rows


# ---------------------------------------------------------------------------
# Table V — max OBR amplification per FCDN x BCDN combination
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Table5Row:
    fcdn: str
    bcdn: str
    exploited_case_prefix: str
    max_n: int
    bcdn_origin_traffic: int
    fcdn_bcdn_traffic: int
    factor: float


def table5_rows_from_results(
    results: Dict[Tuple[str, str], Any],
    combinations: Sequence[Tuple[str, str]],
    resource_size: int = 1024,
) -> List[Table5Row]:
    """Assemble Table V rows from (fcdn, bcdn) -> ObrResult mappings."""
    rows = []
    for fcdn, bcdn in combinations:
        result = results[(fcdn, bcdn)]
        prefix = ObrAttack(fcdn, bcdn, resource_size=resource_size).range_value(3)
        rows.append(
            Table5Row(
                fcdn=fcdn,
                bcdn=bcdn,
                exploited_case_prefix=prefix + ",...",
                max_n=result.overlap_count,
                bcdn_origin_traffic=result.bcdn_origin_traffic,
                fcdn_bcdn_traffic=result.fcdn_bcdn_traffic,
                factor=result.amplification,
            )
        )
    return rows
