"""Seeded fault plans and the deterministic injection engine.

A :class:`FaultPlan` is a frozen list of :class:`FaultRule` entries plus
a seed.  A :class:`FaultInjector` evaluates the plan at each injection
point (origin request handling, segment delivery) without any stateful
RNG: every decision hashes ``"{seed}:{rule_index}:{counter}"`` and maps
the first eight digest bytes onto ``[0, 1)``.  The same seed therefore
yields the same fault sequence regardless of process, platform, or the
order in which *other* rules fire — which is what makes faulted grid
cells reproducible across runs and resumes.

This module must stay import-light: ``netsim/connection.py`` imports it,
so pulling in ``repro.netsim`` (or anything that transitively reaches
the attack stack) here would create a cycle.  The segment-name constants
below are deliberately literals mirroring ``repro.netsim.tap``; a unit
test pins the equality.
"""

from __future__ import annotations

import enum
import hashlib
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Tuple

from repro.errors import ReproError
from repro.http.status import StatusCode

# Mirror of repro.netsim.tap segment names (importing tap here would
# cycle through netsim.connection).  Pinned by tests/faults/test_plan.py.
SITE_ORIGIN = "origin"
SITE_CDN_ORIGIN = "cdn-origin"

#: ``Retry-After`` seconds an origin-error response advertises.
RETRY_AFTER_S = 1


class FaultPlanError(ReproError):
    """An invalid fault rule or plan."""


class FaultKind(enum.Enum):
    """What goes wrong when a rule fires."""

    ORIGIN_ERROR = "origin-error"
    STALL = "stall"
    TRUNCATE = "truncate"
    RESET = "reset"


# Kinds applied at the delivery layer (netsim), as opposed to the origin
# request handler.
DELIVERY_FAULT_KINDS: Tuple[FaultKind, ...] = (
    FaultKind.STALL,
    FaultKind.TRUNCATE,
    FaultKind.RESET,
)


@dataclass(frozen=True)
class FaultRule:
    """One failure mode with a firing rate and a site to apply it at.

    ``rate`` is the per-opportunity firing probability; ``burst`` makes
    each firing persist for that many consecutive opportunities (origin
    outages rarely last a single request).
    """

    kind: FaultKind
    rate: float
    site: str = SITE_ORIGIN
    status: int = int(StatusCode.SERVICE_UNAVAILABLE)
    truncate_fraction: float = 0.5
    burst: int = 1

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise FaultPlanError(f"fault rate must be in [0, 1], got {self.rate!r}")
        if self.burst < 1:
            raise FaultPlanError(f"fault burst must be >= 1, got {self.burst!r}")
        if not 0.0 < self.truncate_fraction <= 1.0:
            raise FaultPlanError(
                f"truncate_fraction must be in (0, 1], got {self.truncate_fraction!r}"
            )
        if self.kind is FaultKind.ORIGIN_ERROR:
            if not 500 <= self.status < 600:
                raise FaultPlanError(
                    f"origin fault status must be a 5xx code, got {self.status!r}"
                )
            try:
                StatusCode(self.status)
            except ValueError as exc:
                raise FaultPlanError(
                    f"origin fault status {self.status!r} is not a known StatusCode"
                ) from exc
            if self.site != SITE_ORIGIN:
                raise FaultPlanError("origin-error rules only apply at the origin site")
        elif self.site == SITE_ORIGIN:
            raise FaultPlanError(
                f"{self.kind.value} rules apply at a delivery segment, not the origin"
            )

    @property
    def is_delivery(self) -> bool:
        return self.kind in DELIVERY_FAULT_KINDS


@dataclass(frozen=True)
class FaultPlan:
    """A seed plus an ordered rule set; the whole unit of determinism."""

    seed: int
    rules: Tuple[FaultRule, ...]

    def __post_init__(self) -> None:
        # Empty rule sets are legal ("armed but quiet" control plans).
        if self.seed < 0:
            raise FaultPlanError(f"fault seed must be non-negative, got {self.seed!r}")

    @classmethod
    def default(cls, seed: int) -> "FaultPlan":
        """The stock mix used by ``repro run-all --faults``."""
        return cls(
            seed=seed,
            rules=(
                FaultRule(FaultKind.ORIGIN_ERROR, rate=0.25, burst=2),
                FaultRule(
                    FaultKind.TRUNCATE,
                    rate=0.15,
                    site=SITE_CDN_ORIGIN,
                    truncate_fraction=0.4,
                ),
                FaultRule(FaultKind.STALL, rate=0.05, site=SITE_CDN_ORIGIN),
                FaultRule(FaultKind.RESET, rate=0.05, site=SITE_CDN_ORIGIN),
            ),
        )

    @classmethod
    def quiet(cls, seed: int) -> "FaultPlan":
        """Armed but rule-free: retries engage, nothing ever fires."""
        return cls(seed=seed, rules=())


@dataclass
class FaultStats:
    """Mutable tallies kept by one injector instance."""

    injected: Dict[str, int] = field(default_factory=dict)
    opportunities: int = 0
    retries: int = 0
    backoff_s: float = 0.0
    fetches: int = 0
    exhausted_fetches: int = 0

    @property
    def total_injected(self) -> int:
        return sum(self.injected.values())


class FaultInjector:
    """Evaluates a :class:`FaultPlan` deterministically.

    Instances are stateful (burst counters, per-rule decision counters,
    stats) but the state is a pure function of the plan and the sequence
    of opportunities presented — no wall clock, no global RNG.
    """

    # Pseudo rule index used for backoff jitter draws so they never
    # perturb the fault decision streams.
    _JITTER_STREAM = -1

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.stats = FaultStats()
        self._counters = [0 for _ in plan.rules]
        self._burst_left = [0 for _ in plan.rules]
        self._jitter_counter = 0

    # -- deterministic decision stream ---------------------------------

    def _unit(self, rule_index: int, counter: int) -> float:
        token = f"{self.plan.seed}:{rule_index}:{counter}".encode("ascii")
        digest = hashlib.sha256(token).digest()
        return int.from_bytes(digest[:8], "big") / 2.0**64

    def _fire(self, index: int, rule: FaultRule) -> bool:
        if self._burst_left[index] > 0:
            self._burst_left[index] -= 1
            return True
        counter = self._counters[index]
        self._counters[index] += 1
        if self._unit(index, counter) < rule.rate:
            self._burst_left[index] = rule.burst - 1
            return True
        return False

    def jitter_unit(self) -> float:
        """A [0, 1) draw from a stream separate from fault decisions."""
        counter = self._jitter_counter
        self._jitter_counter += 1
        return self._unit(self._JITTER_STREAM, counter)

    # -- injection points ----------------------------------------------

    def origin_fault(self, path: str) -> Optional[FaultRule]:
        """Consulted by the origin per request; returns the rule to apply."""
        self.stats.opportunities += 1
        for index, rule in enumerate(self.plan.rules):
            if rule.kind is not FaultKind.ORIGIN_ERROR:
                continue
            if self._fire(index, rule):
                self._count(SITE_ORIGIN, rule.kind)
                return rule
        return None

    def delivery_fault(self, segment: str) -> Optional[FaultRule]:
        """Consulted by the net layer per exchange on a matching segment."""
        matched = False
        for index, rule in enumerate(self.plan.rules):
            if not rule.is_delivery or rule.site != segment:
                continue
            if not matched:
                matched = True
                self.stats.opportunities += 1
            if self._fire(index, rule):
                self._count(segment, rule.kind)
                return rule
        return None

    # -- retry bookkeeping (fed by CdnNode) ----------------------------

    def note_retry(self, vendor: str, delay_s: float) -> None:
        self.stats.retries += 1
        self.stats.backoff_s += delay_s

    def note_fetch(self, vendor: str, attempts: int, ok: bool) -> None:
        self.stats.fetches += 1
        if not ok:
            self.stats.exhausted_fetches += 1

    def _count(self, site: str, kind: FaultKind) -> None:
        key = f"{site}:{kind.value}"
        self.stats.injected[key] = self.stats.injected.get(key, 0) + 1
        # Local import keeps this module import-light; only paid when a
        # fault actually fires.
        from repro.obs.metrics import current_metrics

        registry = current_metrics()
        if registry is not None:
            registry.record_fault(site, kind.value)


_ACTIVE_FAULTS: ContextVar[Optional[FaultInjector]] = ContextVar(
    "repro_active_faults", default=None
)


def current_faults() -> Optional[FaultInjector]:
    """The injector installed on this context, or None (common case)."""
    return _ACTIVE_FAULTS.get()


@contextmanager
def use_faults(injector: FaultInjector) -> Iterator[FaultInjector]:
    """Install ``injector`` for the duration of the block."""
    token = _ACTIVE_FAULTS.set(injector)
    try:
        yield injector
    finally:
        _ACTIVE_FAULTS.reset(token)
