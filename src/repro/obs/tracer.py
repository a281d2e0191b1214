"""Hop-level tracing for the request pipeline.

The paper's evidence is tcpdump captures at four observation points
(client–cdn, cdn–origin, fcdn–bcdn, bcdn–origin); the simulator's
equivalent is a **span tree** per exchange: the client request is the
root, each CDN hop's processing (cache lookup, Range rewrite under the
chosen policy, back-to-origin fetches — including vendor quirks like
Azure's dual connections — and multipart assembly) nests below it, and
the origin's handling is the innermost leaf.

Design constraints:

* **Zero overhead when disabled.**  The default tracer is the shared
  :data:`NULL_TRACER` singleton; every operation on it returns shared
  singletons and allocates nothing, so the hot path pays one
  ``ContextVar`` read per instrumentation point and nothing else
  (``tests/obs/test_disabled.py`` pins this with a tracemalloc guard).
* **Deterministic ids.**  Trace and span ids are per-tracer counters
  (optionally prefixed, e.g. with the grid-cell index), so traces diff
  cleanly across runs.
* **Plain output.**  A finished span is a plain frozen dataclass
  (:class:`SpanRecord`), which is how the
  :class:`~repro.runner.executor.GridRunner` hands per-cell traces to
  ``run_all``.

Span timestamps come from a :class:`~repro.netsim.clock.SimClock` (the
deterministic simulated time); real elapsed wall time is carried
separately as ``wall_ms`` and is observability-only, like
``CellOutcome.duration_s``.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.netsim.clock import SimClock


@dataclass(frozen=True)
class SpanRecord:
    """One finished span, flattened for export.

    ``start``/``end`` are simulated seconds (deterministic); ``wall_ms``
    is real elapsed wall time and is excluded from equality so traces of
    identical runs compare equal.
    """

    trace_id: str
    span_id: str
    parent_id: Optional[str]
    name: str
    start: float
    end: float
    wall_ms: float = field(default=0.0, compare=False)
    attributes: Dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {
            "kind": "span",
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "wall_ms": self.wall_ms,
            "attributes": self.attributes,
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "SpanRecord":
        payload = json.loads(line)
        known = {
            "trace_id", "span_id", "parent_id", "name", "start", "end",
            "wall_ms", "attributes",
        }
        return cls(**{k: v for k, v in payload.items() if k in known})


class Span:
    """A live span.  Use as a context manager::

        with tracer.span("cdn.handle") as span:
            if span.recording:
                span.set(vendor="akamai")
    """

    __slots__ = ("_tracer", "name", "trace_id", "span_id", "parent_id",
                 "attributes", "start", "_wall_start")

    recording = True

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        trace_id: str,
        span_id: str,
        parent_id: Optional[str],
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.attributes: Dict[str, Any] = {}
        self.start = tracer.clock.now
        self._wall_start = time.perf_counter()

    def set(self, **attributes: Any) -> "Span":
        """Attach attributes (last write per key wins)."""
        self.attributes.update(attributes)
        return self

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self._tracer._end(self)


class NullSpan:
    """The disabled span: a shared, allocation-free no-op."""

    __slots__ = ()

    recording = False
    trace_id: Optional[str] = None
    span_id: Optional[str] = None
    parent_id: Optional[str] = None
    name = ""
    attributes: Dict[str, Any] = {}

    def set(self, **attributes: Any) -> "NullSpan":
        return self

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        return None


#: The shared disabled span every :class:`NullTracer` operation returns.
NULL_SPAN = NullSpan()


class NullTracer:
    """Disabled tracing: every operation is a no-op returning shared
    singletons, so instrumented code paths allocate nothing."""

    __slots__ = ()

    enabled = False

    @property
    def current_span(self) -> NullSpan:
        return NULL_SPAN

    def span(self, name: str) -> NullSpan:
        return NULL_SPAN

    def record_ledger(self, ledger: Any) -> None:
        return None

    def finished_spans(self) -> Tuple[SpanRecord, ...]:
        return ()

    def events(self) -> Tuple[Any, ...]:
        return ()


#: The process-wide disabled tracer (the default).
NULL_TRACER = NullTracer()


class Tracer:
    """A recording tracer with a span stack for parent/child linkage.

    Spans nest lexically: :meth:`span` pushes onto the stack, exiting
    the ``with`` block pops and finalizes a :class:`SpanRecord`.  The
    tracer also collects per-exchange
    :class:`~repro.netsim.trace.TraceEvent` streams handed to it via
    :meth:`record_ledger`, so one tracer owns the full joined
    observability record of a run.
    """

    enabled = True

    def __init__(self, clock: Optional[SimClock] = None, id_prefix: str = "") -> None:
        self.clock = clock if clock is not None else SimClock()
        self.id_prefix = id_prefix
        self._stack: List[Span] = []
        self._finished: List[SpanRecord] = []
        self._events: List[Any] = []
        self._next_trace = 0
        self._next_span = 0

    # -- span lifecycle -----------------------------------------------------

    @property
    def current_span(self) -> Any:
        """The innermost open span, or :data:`NULL_SPAN` when idle."""
        return self._stack[-1] if self._stack else NULL_SPAN

    def span(self, name: str) -> Span:
        """Open a child of the current span (or a new root) and push it."""
        if self._stack:
            parent = self._stack[-1]
            trace_id = parent.trace_id
            parent_id: Optional[str] = parent.span_id
        else:
            trace_id = f"{self.id_prefix}t{self._next_trace}"
            self._next_trace += 1
            parent_id = None
        span_id = f"{self.id_prefix}s{self._next_span}"
        self._next_span += 1
        span = Span(self, name, trace_id, span_id, parent_id)
        self._stack.append(span)
        return span

    def _end(self, span: Span) -> None:
        while self._stack and self._stack[-1] is not span:
            # A span leaked open below us (exception unwound past it);
            # close it implicitly so the record stream stays consistent.
            self._stack.pop()
        if self._stack:
            self._stack.pop()
        self._finished.append(
            SpanRecord(
                trace_id=span.trace_id,
                span_id=span.span_id,
                parent_id=span.parent_id,
                name=span.name,
                start=span.start,
                end=self.clock.now,
                wall_ms=(time.perf_counter() - span._wall_start) * 1e3,
                attributes=dict(span.attributes),
            )
        )

    # -- collected output ----------------------------------------------------

    def finished_spans(self) -> Tuple[SpanRecord, ...]:
        """Every closed span, in completion (child-before-parent) order."""
        return tuple(self._finished)

    def record_ledger(self, ledger: Any) -> None:
        """Flatten ``ledger`` into trace events and keep them.

        Called by :meth:`AmplificationReport.from_ledger
        <repro.core.amplification.AmplificationReport.from_ledger>` at
        the end of every attack run, so a traced run captures its full
        per-exchange stream alongside the spans.
        """
        from repro.netsim.trace import ledger_events

        self._events.extend(ledger_events(ledger))

    def events(self) -> Tuple[Any, ...]:
        """Every collected :class:`~repro.netsim.trace.TraceEvent`."""
        return tuple(self._events)


# ---------------------------------------------------------------------------
# Context propagation
# ---------------------------------------------------------------------------

_ACTIVE_TRACER: ContextVar[Any] = ContextVar("repro_obs_tracer", default=NULL_TRACER)


def current_tracer() -> Any:
    """The context's active tracer (:data:`NULL_TRACER` by default)."""
    return _ACTIVE_TRACER.get()


def current_span() -> Any:
    """The innermost open span of the active tracer."""
    return _ACTIVE_TRACER.get().current_span


@contextmanager
def use_tracer(tracer: Any) -> Iterator[Any]:
    """Install ``tracer`` as the context's active tracer."""
    token = _ACTIVE_TRACER.set(tracer)
    try:
        yield tracer
    finally:
        _ACTIVE_TRACER.reset(token)
