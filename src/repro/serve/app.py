"""The analysis service: routing, batch processing, degradation.

:class:`AnalysisService` maps HTTP requests to responses with no I/O of
its own — the asyncio layer (:mod:`repro.serve.server`) feeds it parsed
:class:`~repro.http.message.HttpRequest` objects.  Endpoints:

* ``POST /v1/analyze`` — batch of items, each a vendor (SBR by
  default, CCFC with ``"attack": "ccfc"``) or an FCDN/BCDN pair (OBR);
  an item is parsed by its family's subject shape and answered by that
  family's finding builder alone (:mod:`repro.analysis.families`), the
  same finding :func:`~repro.analysis.report.analyze_vendor_matrix`
  reports, optionally augmented with the family's exact wire-simulated
  factor (``"exact": true``; OBR at its static max n);
* ``POST /v1/recommend`` — same item shapes; answers add the cheapest
  sufficient mitigation from :func:`~repro.analysis.recommend.recommend`;
* ``GET /healthz`` / ``GET /readyz`` — liveness and drain-aware
  readiness;
* ``GET /metrics`` — Prometheus text exposition of the service registry.

:meth:`AnalysisService.plan` parses and validates a batch once and says
whether answering it runs a wire simulation: only an exact item whose
factor is not memoized, and whose finding is not memoized as safe, does.
:meth:`AnalysisService.handle` answers the request from that plan and
runs the batch to completion; the server calls it on the event loop for
static work and on a worker thread for a simulating batch.  The deadline
is checked before each item, so expiry lands on an item boundary — never
mid-computation, never with a half-written memo entry — and the items
left over answer ``deadline_exceeded``.

An exact item runs its family's clean wire simulation
(:attr:`~repro.families.base.AttackFamily.simulate`) through the
``exact`` memo table; the service imports each family's attack module
when it is built, and nothing here loads :mod:`repro.runner`.  That path
sits behind the circuit breaker.  When the breaker refuses, or the
simulation errors, the item still gets its closed-form answer plus
``"degraded": true`` — bounds are upper bounds, so a degraded answer is
conservative rather than wrong.
"""

from __future__ import annotations

import importlib
import itertools
import json
import math
import time
from dataclasses import dataclass, replace
from functools import partial
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    List,
    Optional,
    Tuple,
    Union,
    cast,
)

from repro.analysis.families import FAMILIES, FAMILIES_BY_NAME
from repro.analysis.recommend import DEFAULT_THRESHOLD, recommend
from repro.analysis.report import AnalysisReport, Finding
from repro.cdn.vendors import all_vendor_names
from repro.defense.ratelimit import TokenBucket
from repro.families.base import SHAPES, AttackFamily, Subject, SubjectShape
from repro.http.headers import Headers
from repro.http.message import HttpRequest, HttpResponse
from repro.http.status import StatusCode
from repro.obs.metrics import (
    SERVE_BREAKER_STATE,
    SERVE_INFLIGHT,
    SERVE_QUEUE_DEPTH,
    MetricsRegistry,
    use_metrics,
)
from repro.serve.admission import AdmissionController, AdmissionDecision
from repro.serve.breaker import CircuitBreaker
from repro.serve.deadline import (
    DEADLINE_EXCEEDED,
    DEADLINE_HEADER,
    Deadline,
    resolve_deadline_ms,
)
from repro.serve.memo import SharedMemoRegistry

MB = 1 << 20

#: Hard per-request ceiling; ``X-Deadline-Ms`` is clamped to this.
MAX_DEADLINE_MS = 20000
#: Largest resource size an item may name.
MAX_RESOURCE_SIZE = 1 << 30

#: A monotonic clock; wall time never enters the service logic.
Clock = Callable[[], float]
#: Measured amplification factor, called as ``runner(*subject, size)``:
#: the subject's vendor names (one, or ``fcdn, bcdn``), then the resource
#: size.  Injected, it answers every family's exact items.
ExactRunner = Callable[..., float]

_Result = Tuple[HttpResponse, str]


@dataclass(frozen=True)
class ServeConfig:
    """All service knobs in one injectable bundle."""

    max_inflight: int = 8
    queue_depth: int = 16
    default_deadline_ms: int = 2000
    #: Token-bucket burst; ``rate_refill <= 0`` disables rate limiting.
    rate_capacity: float = 256.0
    rate_refill: float = 0.0
    max_queue_wait_s: float = 5.0
    max_body_bytes: int = 1 * MB
    max_batch_items: int = 64
    #: Exact simulations refuse sizes above this (simulation cost grows
    #: with the resource, and the bounds already cover large sizes).
    exact_max_size: int = 8 * MB
    #: An exact simulation slower than this counts as a breaker failure.
    exact_timeout_s: float = 1.0
    breaker_failure_threshold: int = 3
    breaker_reset_timeout_s: float = 5.0
    breaker_half_open_probes: int = 1
    memo_entries: int = 4096

    def make_bucket(self) -> Optional[TokenBucket]:
        if self.rate_refill <= 0:
            return None
        return TokenBucket(capacity=self.rate_capacity, refill_rate=self.rate_refill)


def _json_body(payload: Dict[str, Any]) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _json_response(
    status: int,
    payload: Dict[str, Any],
    extra_headers: Tuple[Tuple[str, str], ...] = (),
) -> HttpResponse:
    body = _json_body(payload)
    headers = [
        ("Content-Type", "application/json"),
        ("Content-Length", str(len(body))),
        ("Connection", "close"),
    ]
    headers.extend(extra_headers)
    return HttpResponse(status, headers=Headers(headers), body=body)


def _retry_after_header(retry_after_s: float) -> Tuple[str, str]:
    """Format a ``Retry-After`` header: integer seconds, ceiling, >= 1.

    An unbounded wait (bucket can never refill that far) is advertised
    as a long-but-finite backoff rather than infinity.
    """
    if not math.isfinite(retry_after_s):
        seconds = 3600
    else:
        seconds = max(1, math.ceil(retry_after_s))
    return ("Retry-After", str(seconds))


#: Item error for a missing or doubled subject, e.g. ``item needs either
#: "vendor" (SBR/CCFC) or "fcdn"+"bcdn" (OBR)``.
_SUBJECT_ERROR = "item needs either " + " or ".join(
    "+".join(f'"{name}"' for name in shape.fields)
    + f" ({'/'.join(f.name.upper() for f in FAMILIES if f.shape is shape)})"
    for shape in SHAPES
)

#: Every item field that names a subject.
_SUBJECT_FIELDS = frozenset(name for shape in SHAPES for name in shape.fields)

#: An item's subject shape and the family it defaults to, by the subject
#: fields it carries: some of one shape's fields and none of another's.
#: Any other set (none, or two shapes' fields) is missing.
_SHAPES_BY_FIELDS: Dict[FrozenSet[str], Tuple[SubjectShape, AttackFamily]] = {
    frozenset(present): (shape, next(f for f in FAMILIES if f.shape is shape))
    for shape in SHAPES
    for count in range(1, len(shape.fields) + 1)
    for present in itertools.combinations(shape.fields, count)
}


_SAFE_SKIPPED = "finding is safe: no amplification to measure"


@dataclass(frozen=True)
class _Item:
    """One validated batch item."""

    family: AttackFamily
    subject: Subject
    size: int
    exact: bool
    threshold: float
    #: The memoized exact factor the plan found, so answering the item
    #: never simulates even if that memo entry is evicted meanwhile.
    factor: Optional[float] = None


@dataclass(frozen=True)
class BatchPlan:
    """A batch request parsed and validated once, before it is answered."""

    #: The whole request's answer when its body is refused (no items then).
    error: Optional[_Result]
    #: Each item, validated, or why it is invalid.
    items: Tuple[Union[str, _Item], ...] = ()
    budget_ms: int = 0
    #: Answering runs a wire simulation (an exact item with no memoized
    #: factor, or any exact item under an injected runner), unless the
    #: item's finding is memoized as safe.
    simulates: bool = False


class AnalysisService:
    """Routing and batch semantics; deterministic under injected clocks."""

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        clock: Optional[Clock] = None,
        exact_runner: Optional[ExactRunner] = None,
    ) -> None:
        self.config = config if config is not None else ServeConfig()
        self.clock: Clock = clock if clock is not None else time.monotonic
        self.metrics = MetricsRegistry()
        self._exact_runner = exact_runner
        if exact_runner is None:
            # Exact items simulate under a deadline: load the attacks
            # now, so that the first one does not pay for the import.
            for family in FAMILIES:
                if family.attack_module is not None:
                    importlib.import_module(family.attack_module)
        self.breaker = CircuitBreaker(
            failure_threshold=self.config.breaker_failure_threshold,
            reset_timeout_s=self.config.breaker_reset_timeout_s,
            half_open_probes=self.config.breaker_half_open_probes,
        )
        self.admission = AdmissionController(
            max_inflight=self.config.max_inflight,
            queue_depth=self.config.queue_depth,
            bucket=self.config.make_bucket(),
            max_queue_wait_s=self.config.max_queue_wait_s,
        )
        self.memo = SharedMemoRegistry(total_entries=self.config.memo_entries)
        self.draining = False
        self._vendors = frozenset(all_vendor_names())

    # -- entry points -------------------------------------------------------

    def handle(
        self, request: HttpRequest, plan: Optional[BatchPlan] = None
    ) -> HttpResponse:
        """Route, process and record metrics for one request; a batch is
        answered from ``plan`` (planned here when None)."""
        started = self.clock()
        with use_metrics(self.metrics):
            endpoint, (response, outcome) = self._route(request, plan)
            self._observe(endpoint, outcome, started)
        return response

    def shed_response(
        self, request: HttpRequest, decision: AdmissionDecision
    ) -> HttpResponse:
        """The 429 a shed request receives (also records the metric)."""
        endpoint = self._endpoint(request)
        started = self.clock()
        with use_metrics(self.metrics):
            self._observe(endpoint, "shed", started)
        return _json_response(
            StatusCode.TOO_MANY_REQUESTS,
            {"error": "overloaded", "reason": decision.reason},
            extra_headers=(_retry_after_header(decision.retry_after_s),),
        )

    # -- routing ------------------------------------------------------------

    @staticmethod
    def _endpoint(request: HttpRequest) -> str:
        path = request.path
        if path == "/v1/analyze":
            return "analyze"
        if path == "/v1/recommend":
            return "recommend"
        if path in ("/healthz", "/readyz", "/metrics"):
            return path[1:]
        return "other"

    def _route(
        self, request: HttpRequest, plan: Optional[BatchPlan]
    ) -> Tuple[str, _Result]:
        endpoint = self._endpoint(request)
        path = request.path
        if endpoint in ("analyze", "recommend"):
            if request.method != "POST":
                return endpoint, self._error(
                    StatusCode.METHOD_NOT_ALLOWED, f"{path} requires POST"
                )
            if plan is None:
                plan = self.plan(request)
            return endpoint, self._batch(endpoint, plan)
        if endpoint in ("healthz", "readyz", "metrics"):
            if request.method != "GET":
                return endpoint, self._error(
                    StatusCode.METHOD_NOT_ALLOWED, f"{path} requires GET"
                )
            if endpoint == "healthz":
                return endpoint, (
                    _json_response(StatusCode.OK, {"status": "ok"}),
                    "ok",
                )
            if endpoint == "readyz":
                if self.draining:
                    return endpoint, (
                        _json_response(
                            StatusCode.SERVICE_UNAVAILABLE,
                            {"status": "draining"},
                        ),
                        "error",
                    )
                return endpoint, (
                    _json_response(StatusCode.OK, {"status": "ready"}),
                    "ok",
                )
            return endpoint, (self._metrics_response(), "ok")
        return endpoint, self._error(
            StatusCode.NOT_FOUND, f"no such endpoint: {path}"
        )

    @staticmethod
    def _error(status: int, message: str) -> _Result:
        return _json_response(status, {"error": message}), "error"

    def _metrics_response(self) -> HttpResponse:
        self.refresh_gauges()
        body = self.metrics.to_prometheus().encode("utf-8")
        return HttpResponse(
            StatusCode.OK,
            headers=Headers(
                [
                    ("Content-Type", "text/plain; version=0.0.4"),
                    ("Content-Length", str(len(body))),
                    ("Connection", "close"),
                ]
            ),
            body=body,
        )

    def refresh_gauges(self) -> None:
        """Bring point-in-time gauges up to date before an export."""
        self.metrics.gauge(SERVE_QUEUE_DEPTH, "requests in the waiting room").set(
            float(self.admission.queued)
        )
        self.metrics.gauge(SERVE_INFLIGHT, "requests currently running").set(
            float(self.admission.inflight)
        )
        self.metrics.gauge(
            SERVE_BREAKER_STATE,
            "exact-sim breaker state (0 closed, 1 half-open, 2 open)",
        ).set(self.breaker.gauge_value())
        self.memo.export(self.metrics)

    def _observe(self, endpoint: str, outcome: str, started: float) -> None:
        self.metrics.record_serve_request(
            endpoint, outcome, max(0.0, self.clock() - started)
        )

    # -- batch processing ---------------------------------------------------

    def plan(self, request: HttpRequest) -> BatchPlan:
        """Parse and validate a batch request's body and items once.

        Reads no clock and records no memo lookup: each exact item's
        factor and finding are only peeked at here, and the item makes
        its lookups when it is answered."""
        body = request.body.materialize()
        if len(body) > self.config.max_body_bytes:
            return self._refuse(
                StatusCode.PAYLOAD_TOO_LARGE,
                f"body exceeds {self.config.max_body_bytes} bytes",
            )
        try:
            payload = json.loads(body.decode("utf-8"))
        except (ValueError, RecursionError) as exc:
            # ValueError covers bad UTF-8, bad JSON and integers past the
            # interpreter's digit limit; RecursionError, deep nesting.
            return self._refuse(StatusCode.BAD_REQUEST, f"malformed JSON: {exc}")
        if not isinstance(payload, dict) or not isinstance(
            payload.get("items"), list
        ):
            return self._refuse(
                StatusCode.BAD_REQUEST, 'body must be {"items": [...]}'
            )
        raws = payload["items"]
        if not raws:
            return self._refuse(StatusCode.BAD_REQUEST, "items must be non-empty")
        if len(raws) > self.config.max_batch_items:
            return self._refuse(
                StatusCode.BAD_REQUEST,
                f"batch exceeds {self.config.max_batch_items} items",
            )
        exact_applies = self._endpoint(request) == "analyze"
        items: List[Union[str, _Item]] = []
        simulates = False
        for raw in raws:
            item = self._parse_item(raw)
            if (
                exact_applies
                and isinstance(item, _Item)
                and item.exact
                and item.size <= self.config.exact_max_size
            ):
                key = _item_key(item)
                factor = None
                if self._exact_runner is None:
                    factor = self.memo.peek("exact", key)
                if factor is not None:
                    item = replace(item, factor=factor)
                else:
                    # A memoized safe finding answers ``exact_skipped``.
                    finding = self.memo.peek("findings", key)
                    if finding is None or finding.kind != "safe":
                        simulates = True
            items.append(item)
        budget_ms = resolve_deadline_ms(
            request.headers.get(DEADLINE_HEADER),
            self.config.default_deadline_ms,
            MAX_DEADLINE_MS,
        )
        return BatchPlan(None, tuple(items), budget_ms, simulates)

    def _refuse(self, status: int, message: str) -> BatchPlan:
        return BatchPlan(self._error(status, message))

    def _batch(self, endpoint: str, plan: BatchPlan) -> _Result:
        if plan.error is not None:
            return plan.error
        deadline = Deadline(self.clock(), plan.budget_ms / 1000.0)

        results: List[Dict[str, Any]] = []
        partial = False
        degraded = False
        for item in plan.items:
            if deadline.expired(self.clock()):
                results.append({"error": DEADLINE_EXCEEDED})
                partial = True
                continue
            result = self._run_item(endpoint, item)
            if result.get("degraded"):
                degraded = True
            results.append(result)
        response = _json_response(
            StatusCode.OK,
            {
                "results": results,
                "partial": partial,
                "degraded": degraded,
                "deadline_ms": plan.budget_ms,
            },
        )
        if partial:
            outcome = "deadline"
        elif degraded:
            outcome = "degraded"
        else:
            outcome = "ok"
        return response, outcome

    def _parse_item(self, raw: Any) -> Union[str, _Item]:
        """The validated item, or why it is invalid."""
        if not isinstance(raw, dict):
            return "item must be an object"
        named = _SHAPES_BY_FIELDS.get(_SUBJECT_FIELDS.intersection(raw))
        if named is None:
            return _SUBJECT_ERROR
        shape, family = named
        attack = raw.get("attack")
        if attack is not None:
            if not (isinstance(attack, str) and attack in FAMILIES_BY_NAME):
                return f"unknown attack {attack!r}"
            family = FAMILIES_BY_NAME[attack]
            if family.shape is not shape:
                return family.shape.mismatch.format(name=family.name)
        subject = shape.parse(raw, self._vendors)
        if isinstance(subject, str):
            return subject
        tail = self._parse_tail(raw, default_size=family.default_size)
        if isinstance(tail, str):
            return tail
        size, exact, threshold = tail
        return _Item(family, subject, size, exact, threshold)

    def _parse_tail(
        self, raw: Dict[str, Any], default_size: int
    ) -> Union[str, Tuple[int, bool, float]]:
        """Validate the shared item fields; an error string on failure."""
        size = raw.get("size", default_size)
        if isinstance(size, bool) or not isinstance(size, int):
            return "size must be an integer"
        if not 1 <= size <= MAX_RESOURCE_SIZE:
            return f"size must be in [1, {MAX_RESOURCE_SIZE}]"
        exact = raw.get("exact", False)
        if not isinstance(exact, bool):
            return "exact must be a boolean"
        threshold = raw.get("threshold", DEFAULT_THRESHOLD)
        if isinstance(threshold, bool) or not isinstance(threshold, (int, float)):
            return "threshold must be a number"
        if not math.isfinite(threshold):
            return "threshold must be finite"
        if threshold <= 0:
            return "threshold must be > 0"
        return size, exact, float(threshold)

    def _run_item(self, endpoint: str, item: Union[str, _Item]) -> Dict[str, Any]:
        if isinstance(item, str):
            return {"error": f"invalid item: {item}"}
        finding = self._finding(item)
        out: Dict[str, Any] = {"finding": finding.to_dict()}
        if endpoint == "recommend":
            out.update(self._recommendation(item, finding))
        elif item.exact:
            out.update(self._exact(item, finding))
        return out

    # -- findings and recommendations (memoized) ----------------------------

    def _finding(self, item: _Item) -> Finding:
        build = partial(item.family.finding, item.subject, item.size, None, None)
        return cast(
            Finding, self.memo.get_or_compute("findings", _item_key(item), build)
        )

    def _recommendation(self, item: _Item, finding: Finding) -> Dict[str, Any]:
        if finding.kind == "safe":
            return {"recommendation": None, "resolved": True}
        key = ("rec", finding.kind, finding.subject, item.size, item.threshold)

        def compute() -> Dict[str, Any]:
            # Only the item's family's size matters to a one-finding report.
            sizes = {f.size_kwarg: f.default_size for f in FAMILIES}
            sizes[item.family.size_kwarg] = item.size
            report = AnalysisReport(findings=(finding,), sizes=sizes)
            result = recommend(threshold=item.threshold, report=report)
            recommendation = result.recommendations[0]
            return {
                "recommendation": recommendation.to_dict(),
                "resolved": recommendation.resolved,
            }

        return cast(
            Dict[str, Any],
            self.memo.get_or_compute("recommendations", key, compute),
        )

    # -- the breaker-guarded exact path -------------------------------------

    def _exact(self, item: _Item, finding: Finding) -> Dict[str, Any]:
        if finding.kind == "safe":
            return {"exact_skipped": _SAFE_SKIPPED}
        if item.size > self.config.exact_max_size:
            return {
                "exact_skipped": (
                    f"size above exact limit {self.config.exact_max_size}"
                )
            }
        now = self.clock()
        if not self.breaker.allow(now):
            return {"degraded": True, "degraded_reason": "breaker-open"}
        started = self.clock()
        try:
            factor = self._exact_factor(item)
        except Exception as exc:
            self.breaker.record_failure(self.clock())
            return {
                "degraded": True,
                "degraded_reason": f"exact-sim-failed: {exc}",
            }
        elapsed = self.clock() - started
        if elapsed > self.config.exact_timeout_s:
            # Completed, but too slow to keep trusting the path.
            self.breaker.record_failure(self.clock())
        else:
            self.breaker.record_success(self.clock())
        return {"exact_factor": round(factor, 2)}

    def _exact_factor(self, item: _Item) -> float:
        if self._exact_runner is not None:
            return self._exact_runner(*item.subject, item.size)
        # The clean simulation of a vulnerable finding always has a factor
        # (``None`` only means a mitigation blocked the attack).
        compute: Callable[[], float]
        if item.factor is not None:
            # Planned from the memo: an eviction since costs a re-store,
            # never a simulation.
            compute = partial(float, item.factor)
        else:
            compute = partial(item.family.simulate, item.subject, item.size, None)
        return cast(
            float, self.memo.get_or_compute("exact", _item_key(item), compute)
        )


def _item_key(item: _Item) -> Tuple[Any, ...]:
    """The item's key in both the ``findings`` and ``exact`` memos."""
    return (item.family.name, *item.subject, item.size)
