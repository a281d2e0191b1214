"""The Overlapping Byte Ranges family (paper §IV-C): a front end
forwards n overlapping ranges verbatim, and the back end answers each.

The attack is :class:`~repro.core.obr.ObrAttack`; this module holds
the rest: the finding (classify + bound), the mitigations on either
side of the cascade and their residuals, the simulation at static max
n, the grid cell, and run-all's Table V; only the simulation, the cell
and the sweep import :mod:`repro.core.obr`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.bounds import obr_bound, static_max_n
from repro.analysis.classify import vulnerable_cascade
from repro.analysis.report import Finding, severity_for_factor
from repro.cdn.vendors import QUICK_TABLE5_COMBOS
from repro.errors import ConfigurationError
from repro.families.base import (
    CASCADE,
    COST_FETCH_FLOW,
    COST_HEADER_GUARD,
    AttackFamily,
    MitigationSpec,
    Subject,
    Sweep,
    mitigated_profile,
)

if TYPE_CHECKING:
    from repro.cdn.vendors.base import VendorConfig, VendorProfile
    from repro.core.obr import ObrResult
    from repro.netsim.overhead import OverheadModel
    from repro.reporting.render import Table
    from repro.runner.grid import ExperimentCell, Key

def _profiles(
    fcdn: str, bcdn: str, spec: Optional[MitigationSpec]
) -> Tuple[Optional["VendorProfile"], Optional["VendorProfile"]]:
    if spec is None:
        return None, None
    if spec.target == "fcdn":
        return mitigated_profile(fcdn, spec.name), None
    return None, mitigated_profile(bcdn, spec.name)


def _finding(
    subject: Subject,
    resource_size: int,
    overhead: Optional["OverheadModel"],
    configs: Optional[Sequence["VendorConfig"]],
) -> Finding:
    fcdn, bcdn = subject
    label = " -> ".join(subject)
    front_config = configs[0] if configs else None
    classification = vulnerable_cascade(
        fcdn, bcdn, resource_size=resource_size, fcdn_config=front_config
    )
    if classification is None:
        return Finding(
            kind="safe",
            severity="info",
            subject=label,
            mechanism="none",
            factor_bound=0.0,
            detail=f"{label} has no OBR vector",
        )
    mechanism = "laziness+honor" + (
        " (bypass)" if classification.requires_bypass else ""
    )
    bound = obr_bound(fcdn, bcdn, resource_size=resource_size, overhead=overhead)
    return Finding(
        kind="obr",
        severity=severity_for_factor(bound.factor),
        subject=label,
        mechanism=mechanism,
        factor_bound=bound.factor,
        detail=(
            f"{fcdn} forwards {len(classification.lazy_probes)} "
            f"overlapping shapes verbatim; {bcdn} honors them "
            f"(max n = {bound.max_n}, <= {bound.factor:.0f}x)"
        ),
        data={
            "resource_size": resource_size,
            "max_n": bound.max_n,
            "part_overhead_upper": bound.part_overhead_upper,
            "victim_bytes_upper": bound.victim_bytes_upper,
            "attacker_bytes_lower": bound.attacker_bytes_lower,
            "requires_bypass": classification.requires_bypass,
        },
    )


def _residual(subject: Subject, spec: MitigationSpec, size: int) -> float:
    """Worst-case OBR factor after applying ``spec`` to one cascade side.

    0.0 when the mitigated cascade admits no overlapping ranges at all
    (the guard rejects every exploitable shape outright).
    """
    fcdn, bcdn = subject
    front, back = _profiles(fcdn, bcdn, spec)
    try:
        return obr_bound(
            fcdn,
            bcdn,
            resource_size=size,
            fcdn_profile=front,
            bcdn_profile=back,
        ).factor
    except ConfigurationError:
        return 0.0


def _simulate(
    subject: Subject, resource_size: int, spec: Optional[MitigationSpec]
) -> Optional[float]:
    from repro.core.obr import ObrAttack

    fcdn, bcdn = subject
    front, back = _profiles(fcdn, bcdn, spec)
    n = static_max_n(
        fcdn, bcdn, resource_size=resource_size, fcdn_profile=front, bcdn_profile=back
    )
    if n < 1:
        # The mitigation blocks the attack outright; nothing to simulate.
        return None
    attack = ObrAttack(
        fcdn,
        bcdn,
        resource_size=resource_size,
        fcdn_profile=front,
        bcdn_profile=back,
    )
    return attack.run(overlap_count=n).amplification


# ---------------------------------------------------------------------------
# Grid cells and run-all's table
# ---------------------------------------------------------------------------


def measure_obr(
    fcdn: str, bcdn: str, resource_size: int, overlap_count: int
) -> "ObrResult":
    """One OBR cell: ``overlap_count`` 0 searches max n over the wire
    (the Table V methodology); a positive count skips the search."""
    from repro.core.obr import ObrAttack

    attack = ObrAttack(fcdn, bcdn, resource_size=resource_size)
    return attack.run(overlap_count=overlap_count or None)


def grid_cell(
    fcdn: str, bcdn: str, resource_size: int = 1024, overlap_count: int = 0
) -> "ExperimentCell":
    """Table V cell: one FCDN x BCDN cascade."""
    from repro.runner.grid import ExperimentCell

    return ExperimentCell.make(
        "obr", (fcdn, bcdn), resource_size=resource_size, overlap_count=overlap_count
    )


def _sweep(vendors: Sequence[str], quick: bool) -> Sweep:
    """Table V's 11 cascades (quick: two of them)."""
    from repro.core.obr import vulnerable_combinations

    combos = QUICK_TABLE5_COMBOS if quick else tuple(vulnerable_combinations())

    def tables(values: Mapping["Key", Any]) -> List["Table"]:
        from repro.reporting.paper_values import PAPER_TABLE5

        rows = []
        for fcdn, bcdn in combos:
            result = values[(fcdn, bcdn)]
            paper_n, _, paper_fb, paper_factor = PAPER_TABLE5[(fcdn, bcdn)]
            rows.append(
                [
                    fcdn,
                    bcdn,
                    f"{result.overlap_count} ({paper_n})",
                    f"{result.fcdn_bcdn_traffic} ({paper_fb})",
                    f"{result.amplification:.1f} ({paper_factor})",
                ]
            )
        return [
            (
                "table5_obr_factors",
                "Table V - OBR amplification factors",
                ["FCDN", "BCDN", "Max n (paper)", "BCDN->FCDN B (paper)", "Factor (paper)"],
                rows,
            )
        ]

    return Sweep(
        cells=[grid_cell(fcdn, bcdn) for fcdn, bcdn in combos],
        ledger=combos,
        tables=tables,
    )


FAMILY = AttackFamily(
    name="obr",
    shape=CASCADE,
    default_size=1024,
    size_kwarg="obr_resource_size",
    size_flag="--obr-size",
    size_unit=1,
    finding=_finding,
    lists_safe=False,
    deployment_sizes=lambda sizes: sizes[:1],
    # The honoring back end is the root cause (Table III), so guarding
    # it outranks guarding the front; the slice flow coalesces too but
    # costs a fetch-flow change.
    mitigations=(
        MitigationSpec(
            "overlap-rejection",
            "bcdn",
            COST_HEADER_GUARD,
            0,
            "RFC 7233 6.1 guard + coalescing replies at the back end",
        ),
        MitigationSpec(
            "overlap-rejection",
            "fcdn",
            COST_HEADER_GUARD,
            1,
            "RFC 7233 6.1 guard at the front end (CDN77's fix)",
        ),
        MitigationSpec(
            "slicing",
            "bcdn",
            COST_FETCH_FLOW,
            2,
            "slice-based fetching at the back end (coalescing replies)",
        ),
    ),
    residual=_residual,
    simulate=_simulate,
    sweeps_sizes=False,
    measure=measure_obr,
    sweep=_sweep,
    fast_engine="ObrFastEngine",
    attack_module="repro.core.obr",
)
