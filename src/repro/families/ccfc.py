"""The compression format conversion family (arXiv 2409.00712): one
vendor rewrites Accept-Encoding upstream and inflates at the edge.

The attack is :class:`~repro.core.ccfc.CcfcAttack`; this module holds
the rest: the finding (classify + exact closed form), the mitigations
and their residuals, the clean and mitigated simulation, the grid cell,
and run-all's CCFC table; only the simulation and the cell import it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List, Mapping, Optional, Sequence, cast

from repro.analysis.bounds import CcfcResult, ccfc_bound, profile_ccfc_bound
from repro.analysis.classify import classify_ccfc
from repro.analysis.report import Finding, severity_for_factor
from repro.cdn.vendors import profile_class
from repro.families.base import (
    COST_CONFIG_ONLY,
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
    from repro.netsim.overhead import OverheadModel
    from repro.reporting.render import Table
    from repro.runner.grid import ExperimentCell, Key

#: Safe-mechanism phrasing for the CCFC findings.
_SAFE_DETAILS = {
    "forward": "forwards Accept-Encoding untouched; no CCFC vector",
    "strip": "strips Accept-Encoding toward the origin; no CCFC vector",
    "normalize": "normalizes Accept-Encoding to the client's codings; no CCFC vector",
    "rewrite-no-decompress": (
        "rewrites Accept-Encoding but relays compressed bodies as-is; no CCFC vector"
    ),
    "rewrite-incompressible": (
        "rewrites Accept-Encoding to codings that do not compress; no CCFC vector"
    ),
}


def _finding(
    subject: Subject,
    resource_size: int,
    overhead: Optional["OverheadModel"],
    configs: Optional[Sequence["VendorConfig"]],
) -> Finding:
    # Compression behavior is the vendor's, not a node config's.
    (vendor,) = subject
    classification = classify_ccfc(vendor)
    if not classification.vulnerable:
        detail = _SAFE_DETAILS.get(
            classification.mechanism, "has no compression-conversion vector"
        )
        return Finding(
            kind="safe",
            severity="info",
            subject=vendor,
            mechanism=classification.mechanism,
            factor_bound=0.0,
            detail=f"{classification.display_name} {detail}",
            data={
                "attack": "ccfc",
                "encoding_policy": classification.encoding_policy.value,
                "edge_decompresses": classification.edge_decompresses,
            },
        )
    bound = ccfc_bound(vendor, resource_size, overhead=overhead)
    codings = ", ".join(classification.edge_accept_encoding)
    return Finding(
        kind="ccfc",
        severity=severity_for_factor(bound.factor),
        subject=vendor,
        mechanism=classification.mechanism,
        factor_bound=bound.factor,
        detail=(
            f"{classification.display_name} rewrites Accept-Encoding to "
            f"{codings} and inflates at the edge: "
            f"<= {bound.factor:.0f}x at {format_size(resource_size)}"
        ),
        data={
            "attack": "ccfc",
            "resource_size": resource_size,
            "encoding": bound.encoding,
            "edge_accept_encoding": list(classification.edge_accept_encoding),
            "victim_bytes_upper": bound.victim_bytes_upper,
            "attacker_bytes_lower": bound.attacker_bytes_lower,
        },
    )


def _residual(subject: Subject, spec: MitigationSpec, size: int) -> float:
    """Worst-case CCFC factor after wrapping the vendor in ``spec``.

    CCFC bounds are exact (the closed form replays the byte-defining
    paths), so the residual is the factor the mitigated edge actually
    delivers — ~1.0 for pass-through and normalization, since the origin
    then only serves codings the client accepts."""
    (vendor,) = subject
    return profile_ccfc_bound(vendor, mitigated_profile(vendor, spec.name), size).factor


def _simulate(
    subject: Subject, resource_size: int, spec: Optional[MitigationSpec]
) -> float:
    from repro.core.ccfc import CcfcAttack

    return vendor_factor(CcfcAttack, subject, resource_size, spec)


# ---------------------------------------------------------------------------
# Grid cells and run-all's table
# ---------------------------------------------------------------------------

_MEASURED = Memo(2048, name="measure_ccfc")


def measure_ccfc(vendor: str, resource_size: int) -> CcfcResult:
    """One CCFC cell, memoized.  ``CcfcAttack.run`` builds a fresh
    deployment per call, so the result depends only on the arguments
    and caching is sound."""
    from repro.core.ccfc import CcfcAttack

    return cast(
        CcfcResult,
        _MEASURED.get_or_compute(
            (vendor, resource_size),
            lambda: CcfcAttack(vendor, resource_size=resource_size).run(),
        ),
    )


def grid_cell(vendor: str, resource_size: int) -> "ExperimentCell":
    """Compression-conversion cell: one vendor at one resource size."""
    from repro.runner.grid import ExperimentCell

    return ExperimentCell.make("ccfc", (vendor, resource_size))


def _sweep(vendors: Sequence[str], quick: bool) -> Sweep:
    """Every vendor at 10 MB (quick: 1 MB)."""
    sizes = (1 * MB,) if quick else (10 * MB,)
    keys = [(vendor, size) for vendor in vendors for size in sizes]

    def tables(values: Mapping["Key", Any]) -> List["Table"]:
        return [
            (
                "table_ccfc",
                "CCFC - compression-conversion amplification factors",
                ["CDN", "Negotiated coding"] + [f"{s // MB}MB factor" for s in sizes],
                [
                    [
                        profile_class(vendor).display_name,
                        # The coding the edge negotiated at the largest size.
                        values[(vendor, max(sizes))].encoding or "-",
                        *(f"{values[(vendor, s)].amplification:.1f}" for s in sizes),
                    ]
                    for vendor in vendors
                ],
            )
        ]

    return Sweep(cells=[grid_cell(*key) for key in keys], ledger=keys, tables=tables)


FAMILY = AttackFamily(
    name="ccfc",
    shape=VENDOR,
    default_size=10 * MB,
    size_kwarg="ccfc_resource_size",
    size_flag="--ccfc-size-mb",
    size_unit=MB,
    finding=_finding,
    lists_safe=True,
    deployment_sizes=lambda sizes: (max(sizes),),
    # Pass-through is a pure config flip (stop rewriting
    # Accept-Encoding, stop decompressing); normalization keeps edge
    # decompression support but clamps the upstream negotiation to what
    # the client offered, which costs an ingress header guard.
    mitigations=(
        MitigationSpec(
            "encoding-passthrough",
            "cdn",
            COST_CONFIG_ONLY,
            0,
            "forward the client's Accept-Encoding untouched (identity pass-through)",
        ),
        MitigationSpec(
            "encoding-normalization",
            "cdn",
            COST_HEADER_GUARD,
            1,
            "clamp upstream Accept-Encoding to codings the client accepts",
        ),
    ),
    residual=_residual,
    simulate=_simulate,
    sweeps_sizes=True,
    measure=measure_ccfc,
    sweep=_sweep,
    fast_engine="CcfcFastEngine",
    attack_module="repro.core.ccfc",
)
