"""The attack-family registry: which families exist and how each is handled.

Every attack gets the same treatment — classify, bound, mitigate,
measure, serve — and one frozen :class:`AttackFamily` record says how.
:data:`FAMILIES` holds them in report order: ``sbr`` (Small Byte Range,
paper §IV-B) and ``ccfc`` (compression format conversion, arXiv
2409.00712) about one vendor, ``obr`` (Overlapping Byte Ranges, §IV-C)
about an ``fcdn -> bcdn`` cascade.  The engines (``analysis.report``,
``analysis.recommend``, ``serve.app``, ``runner.fastpath``) loop over the
registry or look a family up by name, so adding a family is one record.

Exact measurements (the runner's memoized simulations) are imported
lazily: importing the registry pulls in neither the runner nor the
service.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Collection,
    Dict,
    Iterator,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.analysis.bounds import (
    FaultedSbrBound,
    ProfileFactory,
    ccfc_bound,
    obr_bound,
    profile_ccfc_bound,
    profile_sbr_bound,
    sbr_bound,
    static_max_n,
)
from repro.analysis.classify import classify_cascade, classify_ccfc, classify_sbr
from repro.analysis.report import Finding, severity_for_factor
from repro.cdn.vendors import create_profile
from repro.core.ccfc import CcfcAttack
from repro.core.obr import ObrAttack
from repro.core.sbr import SbrAttack
from repro.defense.mitigations import (
    with_bounded_expansion,
    with_encoding_normalization,
    with_encoding_passthrough,
    with_laziness,
    with_overlap_rejection,
    with_slicing,
)
from repro.errors import ConfigurationError, ReproError
from repro.netsim.overhead import OverheadModel

if TYPE_CHECKING:
    from repro.cdn.vendors.base import VendorConfig
    from repro.faults.plan import FaultPlan

MB = 1 << 20

#: A finding's subject as vendor names: ``("akamai",)`` for a vendor,
#: ``("cdn77", "akamai")`` for a cascade.
Subject = Tuple[str, ...]


def split_subject(label: str) -> Subject:
    """A finding's ``subject`` (``"cdn77 -> akamai"``) as vendor names."""
    return tuple(label.split(" -> "))


class SubjectShape(NamedTuple):
    """What a family's findings are about, and how a serve item names it."""

    #: Serve item fields naming the subject, in subject order.
    fields: Tuple[str, ...]
    #: Noun of the "unknown ..." item error.
    noun: str
    #: Item error when this shape's family is asked for with the other
    #: shape's fields (wording kept from the first service release).
    mismatch: str

    def subjects(self, names: Sequence[str]) -> Iterator[Subject]:
        """Every subject over ``names``: each vendor, or each ordered
        pair of distinct vendors, in ``names`` order."""
        for subject in itertools.product(names, repeat=len(self.fields)):
            if len(set(subject)) == len(subject):
                yield subject

    def chain(
        self, nodes: Sequence[Any]
    ) -> Iterator[Tuple[Subject, Tuple["VendorConfig", ...]]]:
        """Subjects along a deployment chain — each node, or each
        adjacent pair of different vendors — with the nodes' configs."""
        width = len(self.fields)
        for start in range(len(nodes) - width + 1):
            window = nodes[start : start + width]
            subject = tuple(node.profile.name for node in window)
            if len(set(subject)) == width:
                yield subject, tuple(node.config for node in window)

    def parse(
        self, raw: Mapping[str, Any], vendors: Collection[str]
    ) -> Union[str, Subject]:
        """The subject a serve item names, or an error string.  Values
        that are not strings (lists, objects, numbers) are unknown
        vendors, never a crash."""
        values = tuple(raw.get(name) for name in self.fields)
        if not all(isinstance(value, str) and value in vendors for value in values):
            return f"unknown {self.noun} " + " -> ".join(repr(v) for v in values)
        if len(set(values)) < len(values):
            return " and ".join(self.fields) + " must differ"
        return values


VENDOR = SubjectShape(
    fields=("vendor",), noun="vendor", mismatch="attack '{name}' needs \"vendor\""
)
CASCADE = SubjectShape(
    fields=("fcdn", "bcdn"),
    noun="cascade",
    mismatch='attack "{name}" needs "fcdn"+"bcdn"',
)
SHAPES: Tuple[SubjectShape, ...] = (VENDOR, CASCADE)


# ---------------------------------------------------------------------------
# Mitigations (paper §VI-C) and their cost order
# ---------------------------------------------------------------------------

#: Deployment-cost classes, cheapest first: flipping a config option
#: (G-Core's slice switch, an expansion cap) beats adding an ingress
#: header guard, which beats restructuring the fetch flow.
COST_CONFIG_ONLY = 0
COST_HEADER_GUARD = 1
COST_FETCH_FLOW = 2

COST_LABELS: Dict[int, str] = {
    COST_CONFIG_ONLY: "config-only",
    COST_HEADER_GUARD: "header-guard",
    COST_FETCH_FLOW: "fetch-flow",
}


@dataclass(frozen=True)
class MitigationSpec:
    """One applicable mitigation, with its place in the cost order."""

    #: Wrapper name: ``laziness``, ``bounded-expansion``,
    #: ``overlap-rejection``, ``slicing``, ``encoding-passthrough`` or
    #: ``encoding-normalization``.
    name: str
    #: Which side of the deployment it wraps: ``cdn`` (one vendor),
    #: ``fcdn`` or ``bcdn`` (a cascade).
    target: str
    #: Cost class (``COST_*``).
    cost: int
    #: Total evaluation order: candidates are tried rank-ascending and
    #: the first sufficient one wins, so rank must never contradict cost.
    rank: int
    description: str

    @property
    def cost_label(self) -> str:
        return COST_LABELS[self.cost]

    @property
    def label(self) -> str:
        """``laziness@cdn`` — the name used in tables and metrics."""
        return f"{self.name}@{self.target}"


_WRAPPERS = {
    "laziness": with_laziness,
    "bounded-expansion": with_bounded_expansion,
    "overlap-rejection": with_overlap_rejection,
    "slicing": with_slicing,
    "encoding-passthrough": with_encoding_passthrough,
    "encoding-normalization": with_encoding_normalization,
}


def mitigation_profile_factory(vendor: str, mitigation: str) -> ProfileFactory:
    """A fresh-instance factory wrapping ``vendor`` in ``mitigation``."""
    if mitigation not in _WRAPPERS:
        raise ConfigurationError(f"unknown mitigation {mitigation!r}")
    wrapper = _WRAPPERS[mitigation]
    return lambda: wrapper(create_profile(vendor))


def _obr_factories(
    fcdn: str, bcdn: str, spec: Optional[MitigationSpec]
) -> Tuple[Optional[ProfileFactory], Optional[ProfileFactory]]:
    if spec is None:
        return None, None
    if spec.target == "fcdn":
        return mitigation_profile_factory(fcdn, spec.name), None
    return None, mitigation_profile_factory(bcdn, spec.name)


# ---------------------------------------------------------------------------
# Residual bounds: the worst case left after one mitigation
# ---------------------------------------------------------------------------


def _sbr_residual(subject: Subject, spec: MitigationSpec, size: int) -> float:
    """Worst-case SBR factor after wrapping the vendor in ``spec``."""
    (vendor,) = subject
    factory = mitigation_profile_factory(vendor, spec.name)
    return profile_sbr_bound(vendor, factory, size).factor


def _sbr_faulted_residual(subject: Subject, spec: MitigationSpec, size: int) -> float:
    """Retry-aware residual: the residual bound times the vendor's stock
    retry budget, over the bare-wire denominator (informational)."""
    from repro.faults.retry import retry_policy_for

    (vendor,) = subject
    factory = mitigation_profile_factory(vendor, spec.name)
    base = profile_sbr_bound(vendor, factory, size)
    return FaultedSbrBound(
        base=base, max_attempts=retry_policy_for(vendor).max_attempts
    ).factor


def _ccfc_residual(subject: Subject, spec: MitigationSpec, size: int) -> float:
    """Worst-case CCFC factor after wrapping the vendor in ``spec``.

    CCFC bounds are exact (the closed form replays the byte-defining
    paths), so the residual is the factor the mitigated edge actually
    delivers — ~1.0 for pass-through and normalization, since the origin
    then only serves codings the client accepts."""
    (vendor,) = subject
    factory = mitigation_profile_factory(vendor, spec.name)
    return profile_ccfc_bound(vendor, factory, size).factor


def _obr_residual(subject: Subject, spec: MitigationSpec, size: int) -> float:
    """Worst-case OBR factor after applying ``spec`` to one cascade side.

    0.0 when the mitigated cascade admits no overlapping ranges at all
    (the guard rejects every exploitable shape outright).
    """
    fcdn, bcdn = subject
    front, back = _obr_factories(fcdn, bcdn, spec)
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


# ---------------------------------------------------------------------------
# Finding builders: classify + bound -> Finding
# ---------------------------------------------------------------------------


def _format_size(size: int) -> str:
    if size >= MB and size % MB == 0:
        return f"{size // MB}MB"
    return f"{size}B"


def _sbr_finding(
    subject: Subject,
    resource_size: int,
    overhead: Optional[OverheadModel],
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
            f"<= {bound.factor:.0f}x at {_format_size(resource_size)}"
        ),
        data={
            "resource_size": resource_size,
            "range_cases": list(bound.range_cases),
            "origin_fetches": bound.origin_fetches,
            "origin_bytes_upper": bound.origin_bytes_upper,
            "client_bytes_lower": bound.client_bytes_lower,
        },
    )


#: Safe-mechanism phrasing for the CCFC findings.
_CCFC_SAFE_DETAILS = {
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


def _ccfc_finding(
    subject: Subject,
    resource_size: int,
    overhead: Optional[OverheadModel],
    configs: Optional[Sequence["VendorConfig"]],
) -> Finding:
    # Compression behavior is the vendor's, not a node config's.
    (vendor,) = subject
    classification = classify_ccfc(vendor)
    if not classification.vulnerable:
        detail = _CCFC_SAFE_DETAILS.get(
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
            f"<= {bound.factor:.0f}x at {_format_size(resource_size)}"
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


def _obr_finding(
    subject: Subject,
    resource_size: int,
    overhead: Optional[OverheadModel],
    configs: Optional[Sequence["VendorConfig"]],
) -> Finding:
    fcdn, bcdn = subject
    label = " -> ".join(subject)
    front_config = configs[0] if configs else None
    classification = classify_cascade(
        fcdn, bcdn, resource_size=resource_size, fcdn_config=front_config
    )
    if not classification.vulnerable:
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


# ---------------------------------------------------------------------------
# Simulations and exact measurements
# ---------------------------------------------------------------------------


class ExactSimUnavailable(ReproError):
    """The exact simulation could not produce a usable measurement."""


def _vendor_simulation(attack: Callable[..., Any]) -> "MitigatedSimulation":
    """``attack(vendor, ...).run()``'s factor, under ``spec`` if given."""

    def simulate(
        subject: Subject, resource_size: int, spec: Optional[MitigationSpec]
    ) -> Optional[float]:
        (vendor,) = subject
        factory = mitigation_profile_factory(vendor, spec.name) if spec else None
        instance = attack(vendor, resource_size=resource_size, profile_factory=factory)
        return float(instance.run().amplification)

    return simulate


def _simulate_obr(
    subject: Subject, resource_size: int, spec: Optional[MitigationSpec]
) -> Optional[float]:
    fcdn, bcdn = subject
    front, back = _obr_factories(fcdn, bcdn, spec)
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
        fcdn_profile_factory=front,
        bcdn_profile_factory=back,
    )
    return attack.run(overlap_count=n).amplification


def _exact_sbr(
    subject: Subject, resource_size: int, fault_plan: Optional["FaultPlan"]
) -> float:
    (vendor,) = subject
    if fault_plan is None:
        from repro.runner.memo import measure_sbr

        return float(measure_sbr(vendor, resource_size).amplification)
    from repro.faults.experiment import measure_sbr_under_faults

    result = measure_sbr_under_faults(vendor, resource_size, plan=fault_plan, rounds=1)
    if result.exhausted_fetches > 0:
        raise ExactSimUnavailable(
            f"{result.exhausted_fetches} origin fetch(es) exhausted "
            f"the retry budget under faults"
        )
    return float(result.amplification)


def _exact_ccfc(
    subject: Subject, resource_size: int, fault_plan: Optional["FaultPlan"]
) -> float:
    # No fault-plan variant: the CCFC flow has no range algebra for
    # faults to perturb.
    from repro.runner.memo import measure_ccfc

    (vendor,) = subject
    return float(measure_ccfc(vendor, resource_size).amplification)


# ---------------------------------------------------------------------------
# The registry
# ---------------------------------------------------------------------------

FindingBuilder = Callable[
    [Subject, int, Optional[OverheadModel], Optional[Sequence["VendorConfig"]]],
    Finding,
]
ResidualBound = Callable[[Subject, MitigationSpec, int], float]
MitigatedSimulation = Callable[
    [Subject, int, Optional[MitigationSpec]], Optional[float]
]
ExactMeasure = Callable[[Subject, int, Optional["FaultPlan"]], float]


class AttackFamily(NamedTuple):
    """How one attack family is classified, bounded, mitigated, measured.

    A named tuple, not a dataclass: it is built on every import of the
    analysis layer, and costs a fraction of a frozen dataclass to make."""

    #: Finding kind, grid experiment and serve ``"attack"`` name.
    name: str
    shape: SubjectShape
    #: Resource size when a caller names none.
    default_size: int
    #: The keyword (and :class:`~repro.analysis.report.AnalysisReport`
    #: field) carrying this family's resource size.
    size_kwarg: str
    #: ``(subject, size, overhead, node configs) -> Finding``: classify
    #: and bound one subject; ``kind="safe"`` when it is not vulnerable.
    finding: FindingBuilder
    #: Whether reports list safe findings too (every vendor classified);
    #: cascades list only vulnerable cells (most of the 156 are safe).
    lists_safe: bool
    #: Which of a deployment's resource sizes its findings are bounded at.
    deployment_sizes: Callable[[Sequence[int]], Sequence[int]]
    #: Candidate mitigations, cheapest first, and the worst-case factor
    #: under one of them (plus the informational retry-aware one).
    mitigations: Tuple[MitigationSpec, ...]
    residual: ResidualBound
    faulted_residual: Optional[ResidualBound]
    #: Wire-simulated factor, under a mitigation or clean (``None``
    #: spec); ``None`` when the mitigation blocks the attack outright.
    simulate: MitigatedSimulation
    #: Whether :func:`~repro.analysis.recommend.verify_recommendation`
    #: simulates every quick size, or only the report's own size.
    sweeps_sizes: bool
    #: Exact measured factor for serve's ``"exact": true`` (``None``: no
    #: exact path cheap enough to serve).
    exact: Optional[ExactMeasure]
    #: Name of the :mod:`repro.core.vectorized` engine class answering
    #: this family's grid cells in-process with the wire simulation (a
    #: name, so the registry stays light).
    fast_engine: str


FAMILIES: Tuple[AttackFamily, ...] = (
    AttackFamily(
        name="sbr",
        shape=VENDOR,
        default_size=10 * MB,
        size_kwarg="resource_size",
        finding=_sbr_finding,
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
        residual=_sbr_residual,
        faulted_residual=_sbr_faulted_residual,
        simulate=_vendor_simulation(SbrAttack),
        sweeps_sizes=True,
        exact=_exact_sbr,
        fast_engine="SbrFastEngine",
    ),
    AttackFamily(
        name="ccfc",
        shape=VENDOR,
        default_size=10 * MB,
        size_kwarg="ccfc_resource_size",
        finding=_ccfc_finding,
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
        residual=_ccfc_residual,
        faulted_residual=None,
        simulate=_vendor_simulation(CcfcAttack),
        sweeps_sizes=True,
        exact=_exact_ccfc,
        fast_engine="CcfcFastEngine",
    ),
    AttackFamily(
        name="obr",
        shape=CASCADE,
        default_size=1024,
        size_kwarg="obr_resource_size",
        finding=_obr_finding,
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
        residual=_obr_residual,
        faulted_residual=None,
        simulate=_simulate_obr,
        sweeps_sizes=False,
        exact=None,
        fast_engine="ObrFastEngine",
    ),
)

FAMILIES_BY_NAME: Dict[str, AttackFamily] = {family.name: family for family in FAMILIES}
