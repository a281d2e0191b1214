"""Per-layer spans recorded from outside the program.

A traced run wraps public entry points of each ``repro`` layer with a
timing span; nothing under ``src/`` knows about it.  Spans nest per
thread, and a span's *self time* is its duration minus the durations of
the wrapped spans directly inside it, so every second of wrapped work
is attributed to exactly one layer.  A call into an entry point that is
already the innermost open span of the same name (a ``super()`` call,
or one wrapped name calling another) is folded into that span: it is
neither a second call nor a child.

:func:`install` patches every place an entry point is reachable from:
the defining module or class, each subclass that overrides a wrapped
method, and every ``repro`` module that bound a function with
``from X import f``.  :meth:`Patch.restore` puts back exactly the
original objects, which the tests check by identity.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

Extra = Callable[["Tracer", Tuple[Any, ...], Dict[str, Any], Any], None]


@dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0


class Tracer:
    """Span statistics by name, plus free-form counters."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: Dict[str, SpanStats] = {}
        self.counters: Dict[str, float] = {}
        #: Seconds spent inside outermost spans, summed over threads.
        self.covered_s = 0.0
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[List[Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name: str, fn: Callable[..., Any], extra: Optional[Extra] = None) -> Callable[..., Any]:
        """``fn`` timed as span ``name``; ``extra`` sees each call's
        arguments and result and may add counters."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack()
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = [name, 0.0]  # name, seconds spent in child spans
            stack.append(frame)
            started = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = tracer.clock() - started
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                with tracer._lock:
                    stats = tracer.spans.setdefault(name, SpanStats())
                    stats.calls += 1
                    stats.self_s += elapsed - frame[1]
                    stats.total_s += elapsed
                    if not stack:
                        tracer.covered_s += elapsed
            if extra is not None:
                extra(tracer, args, kwargs, result)
            return result

        traced.__wrapped_span__ = name  # type: ignore[attr-defined]
        return traced

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready copy of everything recorded so far."""
        with self._lock:
            return {
                "spans": {
                    name: [stats.calls, stats.self_s, stats.total_s]
                    for name, stats in sorted(self.spans.items())
                },
                "counters": dict(sorted(self.counters.items())),
                "covered_s": self.covered_s,
            }


# -- what gets wrapped -------------------------------------------------------


def _range_bytes(tracer: Tracer, args: Tuple[Any, ...], kwargs: Dict[str, Any], result: Any) -> None:
    value = args[0] if args else kwargs.get("value")
    tracer.count("http.parse_range_header.bytes", len(value) if value else 0)


def _plan_counts(tracer: Tracer, args: Tuple[Any, ...], kwargs: Dict[str, Any], plan: Any) -> None:
    tracer.count("fastpath.answered", len(plan.outcomes))
    tracer.count("fastpath.cells", len(plan.outcomes) + len(plan.residual))
    tracer.count("fastpath.calibration_runs", plan.stats.calibration_runs)


@dataclass(frozen=True)
class EntryPoint:
    """One wrapped public entry point: ``Class.method`` or a function."""

    span: str
    module: str
    target: str
    extra: Optional[Extra] = None
    #: The target builds a callable per configuration and the callable
    #: runs per request, so the span goes on what the target returns.
    factory: bool = False


ENTRY_POINTS: Tuple[EntryPoint, ...] = (
    EntryPoint("http.parse_range_header", "repro.http.ranges", "parse_range_header", _range_bytes),
    EntryPoint("http.resolve", "repro.http.ranges", "RangeSpecifier.resolve"),
    # Encoding, not MultipartByteranges.build: CDN nodes assemble their
    # parts inline and only the origin calls build.
    EntryPoint("http.multipart_build", "repro.http.multipart", "MultipartByteranges.to_body"),
    EntryPoint("http.parse_request", "repro.http.wire", "parse_request"),
    EntryPoint("cdn.node_handle", "repro.cdn.node", "CdnNode.handle"),
    EntryPoint("cdn.limits_check", "repro.cdn.limits", "HeaderLimits.check"),
    EntryPoint("cdn.forward_decision", "repro.cdn.vendors.base", "VendorProfile.forward_decision"),
    EntryPoint("origin.handle", "repro.origin.server", "OriginServer.handle"),
    EntryPoint("netsim.exchange", "repro.netsim.connection", "Connection.exchange"),
    EntryPoint("netsim.fluid_run", "repro.netsim.bandwidth", "FluidSimulator.run"),
    EntryPoint("core.sbr_run", "repro.core.sbr", "SbrAttack.run"),
    EntryPoint("core.obr_run", "repro.core.obr", "ObrAttack.run"),
    EntryPoint("core.obr_find_max_n", "repro.core.obr", "ObrAttack.find_max_n"),
    EntryPoint("core.ccfc_run", "repro.core.ccfc", "CcfcAttack.run"),
    EntryPoint("core.fast_measure", "repro.core.vectorized", "SbrFastEngine.measure"),
    EntryPoint("core.fast_measure", "repro.core.vectorized", "ObrFastEngine.measure"),
    EntryPoint("core.fast_measure", "repro.core.vectorized", "CcfcFastEngine.measure"),
    EntryPoint("runner.plan", "repro.runner.fastpath", "FastPathPlanner.plan", _plan_counts),
    EntryPoint("runner.validate", "repro.runner.fastpath", "FastPathPlanner.validate"),
    EntryPoint("runner.grid_run", "repro.runner.executor", "GridRunner.run"),
    EntryPoint("analysis.analyze_vendor_matrix", "repro.analysis.report", "analyze_vendor_matrix"),
    EntryPoint("analysis.recommend", "repro.analysis.recommend", "recommend"),
    EntryPoint("analysis.static_max_n", "repro.analysis.bounds", "static_max_n"),
    EntryPoint("analysis.bounds", "repro.analysis.bounds", "sbr_bound"),
    EntryPoint("analysis.bounds", "repro.analysis.bounds", "profile_sbr_bound"),
    EntryPoint("analysis.bounds", "repro.analysis.bounds", "faulted_sbr_bound"),
    EntryPoint("analysis.bounds", "repro.analysis.bounds", "obr_bound"),
    EntryPoint("analysis.bounds", "repro.analysis.bounds", "ccfc_bound"),
    EntryPoint("analysis.bounds", "repro.analysis.bounds", "profile_ccfc_bound"),
    EntryPoint("analysis.classify", "repro.analysis.classify", "classify_sbr"),
    EntryPoint("analysis.classify", "repro.analysis.classify", "classify_ccfc"),
    EntryPoint("analysis.classify", "repro.analysis.classify", "classify_cascade"),
    EntryPoint("defense.mitigation_check", "repro.defense.mitigations", "rfc7233_multirange_guard", factory=True),
    EntryPoint("serve.service_handle", "repro.serve.app", "AnalysisService.handle"),
)

#: Imported before patching so that every subclass and every
#: ``from X import f`` alias already exists when the scan runs.
PRELOAD = (
    "repro.cdn.vendors",
    "repro.defense.mitigations",
    "repro.analysis.recommend",
    "repro.runner.runall",
    "repro.serve.server",
    "repro.cli",
)


def _subclasses(cls: type) -> List[type]:
    found: List[type] = []
    pending = [cls]
    while pending:
        current = pending.pop()
        if current not in found:
            found.append(current)
            pending.extend(current.__subclasses__())
    return found


@dataclass
class Patch:
    """Every (owner, attribute, original) pair one :func:`install` set."""

    applied: List[Tuple[Any, str, Any]] = field(default_factory=list)

    def restore(self) -> None:
        for owner, attr, original in reversed(self.applied):
            setattr(owner, attr, original)
        self.applied.clear()


def _places(entry: EntryPoint) -> List[Tuple[Any, str, Any]]:
    """``(owner, attribute, raw original)`` for every place that defines
    or aliases ``entry``."""
    module = importlib.import_module(entry.module)
    if "." in entry.target:
        class_name, method = entry.target.split(".")
        return [
            (cls, method, cls.__dict__[method])
            for cls in _subclasses(getattr(module, class_name))
            if method in cls.__dict__
        ]
    original = getattr(module, entry.target)
    return [
        (mod, attr, original)
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "repro" or name.startswith("repro."))
        for attr, value in list(vars(mod).items())
        if value is original
    ]


def sites() -> List[Tuple[EntryPoint, Any, str, Any]]:
    """``(entry, owner, attribute, current object)`` for every patch site."""
    for name in PRELOAD:
        importlib.import_module(name)
    return [(entry, *place) for entry in ENTRY_POINTS for place in _places(entry)]


def _wrapped(tracer: Tracer, entry: EntryPoint, raw: Any) -> Any:
    if entry.factory:

        def factory(*args: Any, **kwargs: Any) -> Any:
            return tracer.wrap(entry.span, raw(*args, **kwargs))

        return functools.wraps(raw)(factory)
    return tracer.wrap(entry.span, raw, entry.extra)


def install(tracer: Tracer) -> Patch:
    """Wrap every entry point; the returned patch undoes it."""
    patch = Patch()
    for entry, owner, attr, raw in sites():
        setattr(owner, attr, _wrapped(tracer, entry, raw))
        patch.applied.append((owner, attr, raw))
    return patch
