"""Structured regeneration of the paper's Tables I–V, plus the faulted
re-amplification table (Table VI) this reproduction adds on top."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.cdn.vendors import all_vendor_names, profile_class
from repro.core.feasibility import FeasibilityProbe, VendorFeasibility, survey
from repro.core.obr import ObrAttack, vulnerable_combinations
from repro.core.sbr import SbrAttack, exploited_range_cases

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


def table1_rows(
    vendors: Optional[Sequence[str]] = None,
    file_size: int = 64 * 1024,
    feasibility: Optional[Dict[str, VendorFeasibility]] = None,
) -> List[Table1Row]:
    """Regenerate Table I by probing each vendor's forwarding policies."""
    results = feasibility if feasibility is not None else survey(vendors, file_size)
    rows = []
    for name in sorted(results):
        verdict = results[name]
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


def table2_rows(
    vendors: Optional[Sequence[str]] = None,
    file_size: int = 64 * 1024,
    feasibility: Optional[Dict[str, VendorFeasibility]] = None,
) -> List[Table2Row]:
    """Regenerate Table II: vendors usable as the OBR front-end."""
    results = feasibility if feasibility is not None else survey(vendors, file_size)
    rows = []
    for name in sorted(results):
        verdict = results[name]
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


def table3_rows(
    vendors: Optional[Sequence[str]] = None,
    file_size: int = 64 * 1024,
    feasibility: Optional[Dict[str, VendorFeasibility]] = None,
) -> List[Table3Row]:
    """Regenerate Table III: vendors usable as the OBR back-end."""
    results = feasibility if feasibility is not None else survey(vendors, file_size)
    rows = []
    for name in sorted(results):
        verdict = results[name]
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


def table4_rows(
    vendors: Optional[Sequence[str]] = None,
    sizes: Sequence[int] = (1 * MB, 10 * MB, 25 * MB),
    runner: Optional[object] = None,
) -> List[Table4Row]:
    """Regenerate Table IV by running the SBR attack at each size.

    ``runner`` optionally supplies a :class:`repro.runner.GridRunner`;
    the vendor x size cells then execute through it (in parallel when it
    has workers) with results merged in grid order, which keeps the rows
    identical to the serial path.
    """
    names = list(vendors) if vendors is not None else all_vendor_names()
    if runner is not None:
        from repro.core.sbr import sbr_grid

        grid_result = runner.run(sbr_grid(names, tuple(sizes), name="table4-sbr"))
        grid_result.values()  # propagate the first cell failure, like serial
        return table4_rows_from_results(grid_result.value_by_key(), names, sizes)
    results = {
        (name, size): SbrAttack(name, resource_size=size).run()
        for name in names
        for size in sizes
    }
    return table4_rows_from_results(results, names, sizes)


def table4_rows_from_results(
    results: Dict[Tuple[str, int], object],
    vendors: Sequence[str],
    sizes: Sequence[int],
) -> List[Table4Row]:
    """Assemble Table IV rows from (vendor, size) -> SbrResult mappings."""
    rows = []
    for name in vendors:
        factors: Dict[int, float] = {}
        client: Dict[int, int] = {}
        origin: Dict[int, int] = {}
        for size in sizes:
            result = results[(name, size)]
            factors[size] = result.amplification
            client[size] = result.client_traffic
            origin[size] = result.origin_traffic
        rows.append(
            Table4Row(
                vendor=name,
                display_name=profile_class(name).display_name,
                exploited_cases=tuple(exploited_range_cases(name, max(sizes))),
                factors=factors,
                client_traffic=client,
                origin_traffic=origin,
            )
        )
    return rows


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
    results: Dict[Tuple[str, int], object],
    vendors: Sequence[str],
    sizes: Sequence[int],
) -> List[CcfcTableRow]:
    """Assemble CCFC rows from (vendor, size) -> CcfcResult mappings."""
    rows = []
    for name in vendors:
        factors: Dict[int, float] = {}
        client: Dict[int, int] = {}
        origin: Dict[int, int] = {}
        for size in sizes:
            result = results[(name, size)]
            factors[size] = result.amplification
            client[size] = result.client_traffic
            origin[size] = result.origin_traffic
        rows.append(
            CcfcTableRow(
                vendor=name,
                display_name=profile_class(name).display_name,
                encoding=results[(name, max(sizes))].encoding,
                factors=factors,
                client_traffic=client,
                origin_traffic=origin,
            )
        )
    return rows


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


def table5_rows(
    combinations: Optional[Sequence[Tuple[str, str]]] = None,
    resource_size: int = 1024,
    runner: Optional[object] = None,
) -> List[Table5Row]:
    """Regenerate Table V: search max n per combination, then measure.

    ``runner`` optionally executes the 11 cascade cells through a
    :class:`repro.runner.GridRunner`; each cell is a max-n search plus a
    thousands-part measurement, so this is the sweep where parallel
    workers pay off most.
    """
    combos = list(combinations) if combinations is not None else vulnerable_combinations()
    if runner is not None:
        from repro.core.obr import obr_grid

        grid_result = runner.run(obr_grid(combos, resource_size=resource_size))
        grid_result.values()  # propagate the first cell failure, like serial
        return table5_rows_from_results(
            grid_result.value_by_key(), combos, resource_size
        )
    results = {
        (fcdn, bcdn): ObrAttack(fcdn, bcdn, resource_size=resource_size).run()
        for fcdn, bcdn in combos
    }
    return table5_rows_from_results(results, combos, resource_size)


def table5_rows_from_results(
    results: Dict[Tuple[str, str], object],
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
