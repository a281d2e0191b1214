"""The Small Byte Range family (paper §IV-B): one vendor fetches far
more from the origin than the tiny range it returns.

The attack is :class:`~repro.core.sbr.SbrAttack`; this module holds
the rest: the finding (classify + bound), the mitigations and their
residuals, the clean and mitigated simulation, the grid cell, and
run-all's Table IV and Fig 6a; only the simulation and the cell import it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List, Mapping, Optional, Sequence, cast

from repro.analysis.bounds import FaultedSbrBound, profile_sbr_bound, sbr_bound
from repro.analysis.classify import classify_sbr
from repro.analysis.report import Finding, severity_for_factor
from repro.cdn.vendors import profile_class
from repro.families.base import (
    COST_CONFIG_ONLY,
    COST_FETCH_FLOW,
    COST_HEADER_GUARD,
    MB,
    VENDOR,
    AttackFamily,
    MitigationSpec,
    Subject,
    Sweep,
    format_size,
    mitigated_profile,
    vendor_factor,
)
from repro.obs.memo import Memo

if TYPE_CHECKING:
    from repro.cdn.vendors.base import VendorConfig
    from repro.core.sbr import SbrResult
    from repro.netsim.overhead import OverheadModel
    from repro.reporting.render import Table
    from repro.runner.grid import ExperimentCell, Key


def _finding(
    subject: Subject,
    resource_size: int,
    overhead: Optional["OverheadModel"],
    configs: Optional[Sequence["VendorConfig"]],
) -> Finding:
    (vendor,) = subject
    classification = classify_sbr(vendor, config=configs[0] if configs else None)
    if not classification.vulnerable:
        return Finding(
            kind="safe",
            severity="info",
            subject=vendor,
            mechanism="none",
            factor_bound=0.0,
            detail=f"{classification.display_name} forwards ranges lazily; no SBR vector",
        )
    bound = sbr_bound(vendor, resource_size, overhead=overhead)
    return Finding(
        kind="sbr",
        severity=severity_for_factor(bound.factor),
        subject=vendor,
        mechanism=classification.mechanism,
        factor_bound=bound.factor,
        detail=(
            f"{classification.display_name} amplifies via {classification.mechanism}: "
            f"<= {bound.factor:.0f}x at {format_size(resource_size)}"
        ),
        data={
            "resource_size": resource_size,
            "range_cases": list(bound.range_cases),
            "origin_fetches": bound.origin_fetches,
            "origin_bytes_upper": bound.origin_bytes_upper,
            "client_bytes_lower": bound.client_bytes_lower,
        },
    )


def _residual(subject: Subject, spec: MitigationSpec, size: int) -> float:
    """Worst-case SBR factor after wrapping the vendor in ``spec``."""
    (vendor,) = subject
    return profile_sbr_bound(vendor, mitigated_profile(vendor, spec.name), size).factor


def _faulted_residual(subject: Subject, spec: MitigationSpec, size: int) -> float:
    """Retry-aware residual: the residual bound times the vendor's stock
    retry budget, over the bare-wire denominator (informational)."""
    from repro.faults.retry import retry_policy_for

    (vendor,) = subject
    base = profile_sbr_bound(vendor, mitigated_profile(vendor, spec.name), size)
    return FaultedSbrBound(
        base=base, max_attempts=retry_policy_for(vendor).max_attempts
    ).factor


def _simulate(
    subject: Subject, resource_size: int, spec: Optional[MitigationSpec]
) -> float:
    from repro.core.sbr import SbrAttack

    return vendor_factor(SbrAttack, subject, resource_size, spec)


# ---------------------------------------------------------------------------
# Grid cells and run-all's tables
# ---------------------------------------------------------------------------

_MEASURED = Memo(2048, name="measure_sbr")


def measure_sbr(vendor: str, resource_size: int) -> "SbrResult":
    """One SBR cell, memoized: Table IV's cells are a subset of Fig 6's
    grid, and Fig 7's per-request probe is the cloudflare/10 MB cell.
    ``SbrAttack.run`` builds a fresh deployment per call, so the result
    depends only on the arguments and caching is sound."""
    from repro.core.sbr import SbrAttack

    return cast(
        "SbrResult",
        _MEASURED.get_or_compute(
            (vendor, resource_size),
            lambda: SbrAttack(vendor, resource_size=resource_size).run(),
        ),
    )


def grid_cell(vendor: str, resource_size: int) -> "ExperimentCell":
    """Table IV / Fig 6 cell: one vendor at one resource size."""
    from repro.runner.grid import ExperimentCell

    return ExperimentCell.make("sbr", (vendor, resource_size))


def _sweep(vendors: Sequence[str], quick: bool) -> Sweep:
    """Table IV at 1/10/25 MB and Fig 6 at 1..25 MB (quick: 1 MB and
    1..3 MB); one grid serves both, deduped."""
    table4_sizes = (1 * MB,) if quick else (1 * MB, 10 * MB, 25 * MB)
    fig6_sizes = tuple(m * MB for m in range(1, 4 if quick else 26))
    table4 = [(vendor, size) for vendor in vendors for size in table4_sizes]

    def tables(values: Mapping["Key", Any]) -> List["Table"]:
        from repro.reporting.paper_values import PAPER_TABLE4_FACTORS

        return [
            (
                "table4_sbr_factors",
                "Table IV - SBR amplification factors",
                ["CDN", "Exploited Case"] + [f"{s // MB}MB (paper)" for s in table4_sizes],
                [
                    [
                        profile_class(vendor).display_name,
                        " & ".join(profile_class(vendor).sbr_cases_at(max(table4_sizes))),
                        *(
                            f"{values[(vendor, s)].amplification:.0f} "
                            f"({PAPER_TABLE4_FACTORS[vendor].get(s, '-')})"
                            for s in table4_sizes
                        ),
                    ]
                    for vendor in vendors
                ],
            ),
            (
                "fig6a_amplification_factors",
                "Fig 6a - SBR amplification factor vs resource size",
                ["size", *vendors],
                [
                    [f"{size // MB}MB"]
                    + [f"{values[(vendor, size)].amplification:.0f}" for vendor in vendors]
                    for size in fig6_sizes
                ],
            ),
        ]

    return Sweep(
        cells=[grid_cell(v, s) for v in vendors for s in fig6_sizes]
        + [grid_cell(*key) for key in table4],
        ledger=table4,
        tables=tables,
    )


FAMILY = AttackFamily(
    name="sbr",
    shape=VENDOR,
    default_size=10 * MB,
    size_kwarg="resource_size",
    size_flag="--size-mb",
    size_unit=MB,
    finding=_finding,
    lists_safe=True,
    deployment_sizes=lambda sizes: sizes,
    # Bounded expansion is the smallest behavioral change (prefetching
    # survives); Laziness gives up range-driven caching but is still a
    # config flip; the RFC 7233 guard adds ingress rejection on top of
    # Laziness; slicing restructures the fetch flow entirely.
    mitigations=(
        MitigationSpec(
            "bounded-expansion",
            "cdn",
            COST_CONFIG_ONLY,
            0,
            "cap range expansion at 8KB of slack (paper 6-C)",
        ),
        MitigationSpec(
            "laziness",
            "cdn",
            COST_CONFIG_ONLY,
            1,
            "forward the Range header unchanged (G-Core's fix)",
        ),
        MitigationSpec(
            "overlap-rejection",
            "cdn",
            COST_HEADER_GUARD,
            2,
            "lazy forwarding plus the RFC 7233 6.1 ingress guard",
        ),
        MitigationSpec(
            "slicing",
            "cdn",
            COST_FETCH_FLOW,
            3,
            "fetch fixed-size slices and cache them independently",
        ),
    ),
    residual=_residual,
    faulted_residual=_faulted_residual,
    simulate=_simulate,
    sweeps_sizes=True,
    measure=measure_sbr,
    sweep=_sweep,
    fast_engine="SbrFastEngine",
    attack_module="repro.core.sbr",
)
