"""What an attack family declares, and the parts families share.

Every attack gets the same treatment — classify, bound, mitigate,
measure, run, serve — and one :class:`AttackFamily` record says how.  A
family module (:mod:`repro.families.sbr`, ``obr``, ``ccfc``) holds its
record and everything specific to it; the registry
(:mod:`repro.analysis.families`) lists the records, and the engines
loop over it.  This module holds what they share: the subject shapes,
the mitigation specs and their cost order, and the record types.
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
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.cdn.vendors import create_profile
from repro.defense.mitigations import (
    with_bounded_expansion,
    with_encoding_normalization,
    with_encoding_passthrough,
    with_laziness,
    with_overlap_rejection,
    with_slicing,
)
from repro.errors import ConfigurationError
from repro.obs.memo import Memo

if TYPE_CHECKING:
    from repro.analysis.report import Finding
    from repro.cdn.vendors.base import VendorConfig, VendorProfile
    from repro.netsim.overhead import OverheadModel
    from repro.reporting.render import Table
    from repro.runner.grid import ExperimentCell, Key

MB = 1 << 20

#: A finding's subject as vendor names: ``("akamai",)`` for a vendor,
#: ``("cdn77", "akamai")`` for a cascade.
Subject = Tuple[str, ...]


def split_subject(label: str) -> Subject:
    """A finding's ``subject`` (``"cdn77 -> akamai"``) as vendor names."""
    return tuple(label.split(" -> "))


def format_size(size: int) -> str:
    """``10MB`` for whole megabytes, ``1024B`` otherwise."""
    if size >= MB and size % MB == 0:
        return f"{size // MB}MB"
    return f"{size}B"


class SubjectShape(NamedTuple):
    """What a family's findings are about, and how a serve item names it."""

    #: Serve item fields naming the subject, in subject order.
    fields: Tuple[str, ...]
    #: Noun of the "unknown ..." item error and of the CLI summaries.
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


_WRAPPERS: Dict[str, Callable[["VendorProfile"], "VendorProfile"]] = {
    "laziness": with_laziness,
    "bounded-expansion": with_bounded_expansion,
    "overlap-rejection": with_overlap_rejection,
    "slicing": with_slicing,
    "encoding-passthrough": with_encoding_passthrough,
    "encoding-normalization": with_encoding_normalization,
}


#: The shared mitigated profiles, by ``(vendor, mitigation)``: 13
#: vendors under 6 mitigations are 78.
_MITIGATED = Memo(maxsize=128, name="mitigated_profile")


def mitigated_profile(vendor: str, mitigation: str) -> "VendorProfile":
    """The one shared profile wrapping ``vendor`` in ``mitigation``, so
    answers memoized under it (classification, max-n) hit across calls."""
    if mitigation not in _WRAPPERS:
        raise ConfigurationError(f"unknown mitigation {mitigation!r}")
    profile: "VendorProfile" = _MITIGATED.get_or_compute(
        (vendor, mitigation), lambda: _WRAPPERS[mitigation](create_profile(vendor))
    )
    return profile


# ---------------------------------------------------------------------------
# The record
# ---------------------------------------------------------------------------

FindingBuilder = Callable[
    [Subject, int, Optional["OverheadModel"], Optional[Sequence["VendorConfig"]]],
    "Finding",
]
ResidualBound = Callable[[Subject, MitigationSpec, int], float]
MitigatedSimulation = Callable[
    [Subject, int, Optional[MitigationSpec]], Optional[float]
]


def vendor_factor(
    attack: Callable[..., Any],
    subject: Subject,
    resource_size: int,
    spec: Optional[MitigationSpec],
) -> float:
    """``attack(vendor, ...).run()``'s factor, under ``spec`` if given."""
    (vendor,) = subject
    profile = mitigated_profile(vendor, spec.name) if spec else None
    instance = attack(vendor, resource_size=resource_size, profile=profile)
    return float(instance.run().amplification)


class Sweep(NamedTuple):
    """A family's part of ``run_all``: its grid cells, and what the run
    makes of their values (keyed by cell key)."""

    cells: Sequence["ExperimentCell"]
    #: Keys of the cells whose factor the run ledger records, as
    #: ``<family>:<key parts>`` (``sbr:akamai:1048576``).
    ledger: Sequence["Key"]
    #: The family's run-all tables, in write order.
    tables: Callable[[Mapping["Key", Any]], List["Table"]]


class AttackFamily(NamedTuple):
    """How one attack family is classified, bounded, mitigated, measured.

    A named tuple, not a dataclass: it is built on every import of the
    analysis layer, and costs a fraction of a frozen dataclass to make."""

    #: Finding kind, grid experiment and serve ``"attack"`` name; its
    #: upper case names the family in CLI output.
    name: str
    shape: SubjectShape
    #: Resource size when a caller names none.
    default_size: int
    #: The keyword (and report ``sizes`` key) carrying this family's
    #: resource size.
    size_kwarg: str
    #: The ``analyze``/``recommend`` flag carrying that size, counted in
    #: ``size_unit`` bytes (``MB`` or 1).
    size_flag: str
    size_unit: int
    #: ``(subject, size, overhead, node configs) -> Finding``: classify
    #: and bound one subject; ``kind="safe"`` when it is not vulnerable.
    finding: FindingBuilder
    #: Whether reports list safe findings too (every vendor classified);
    #: cascades list only vulnerable cells (most of the 156 are safe).
    lists_safe: bool
    #: Which of a deployment's resource sizes its findings are bounded at.
    deployment_sizes: Callable[[Sequence[int]], Sequence[int]]
    #: Candidate mitigations, cheapest first, and the worst-case factor
    #: under one of them.
    mitigations: Tuple[MitigationSpec, ...]
    residual: ResidualBound
    #: Wire-simulated factor, under a mitigation or clean (``None``
    #: spec); ``None`` when the mitigation blocks the attack outright.
    #: The clean run is the family's exact factor (OBR at static max n).
    simulate: MitigatedSimulation
    #: Whether :func:`~repro.analysis.recommend.verify_recommendation`
    #: simulates every quick size, or only the report's own size.
    sweeps_sizes: bool
    #: The grid cell function: ``measure(*cell.key, **cell params)``.
    measure: Callable[..., Any]
    #: ``(vendors, quick) -> Sweep``: the family's part of ``run_all``.
    sweep: Callable[[Sequence[str], bool], Sweep]
    #: The informational retry-aware residual, if the family has one.
    faulted_residual: Optional[ResidualBound] = None
    #: Name of the :mod:`repro.core.vectorized` engine answering this
    #: family's grid cells before the grid runs (a name, so the registry
    #: stays light); without one its cells go to the grid runner.
    fast_engine: Optional[str] = None
    #: The module of the family's wire-level attack.  ``simulate`` and
    #: ``measure`` import it on first use, so the audit never loads the
    #: traffic stack; a server that simulates under a deadline imports
    #: it before it listens.
    attack_module: Optional[str] = None
