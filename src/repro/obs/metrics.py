"""Process-local metrics: counters, gauges, and histograms.

A :class:`MetricsRegistry` owns named metric families; each family holds
one sample per label combination.  Snapshots are plain JSON-able dicts
(deterministically ordered) that can be merged — a collecting grid run
snapshots each cell's registry and folds the snapshots into one
registry — and rendered as Prometheus text
exposition format.

Like tracing, metrics default to **off**: :func:`current_metrics`
returns ``None`` unless a registry was installed with
:func:`use_metrics`, and every instrumentation site guards on that, so
the disabled hot path pays one ``ContextVar`` read and nothing else.

Canonical instrument names used by the pipeline instrumentation live
here (``repro_segment_*``, ``repro_cache_lookups_total``, ...) together
with ``record_*`` helpers so every call site emits consistent series.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ReproError

LabelKey = Tuple[Tuple[str, str], ...]

#: Canonical metric names emitted by the pipeline instrumentation.
SEGMENT_EXCHANGES = "repro_segment_exchanges_total"
SEGMENT_REQUEST_BYTES = "repro_segment_request_bytes_total"
SEGMENT_RESPONSE_BYTES_SENT = "repro_segment_response_bytes_sent_total"
SEGMENT_RESPONSE_BYTES_DELIVERED = "repro_segment_response_bytes_delivered_total"
CACHE_LOOKUPS = "repro_cache_lookups_total"
MEMO_LOOKUPS = "repro_memo_lookups_total"
RANGE_REWRITES = "repro_range_rewrites_total"
AMPLIFICATION_FACTOR = "repro_amplification_factor"
RUNNER_CELL_SECONDS = "repro_runner_cell_seconds"
RUNNER_CELLS = "repro_runner_cells_total"
FAULTS_INJECTED = "repro_faults_injected_total"
FETCH_RETRIES = "repro_fetch_retries_total"
RETRY_BACKOFF_SECONDS = "repro_retry_backoff_seconds_total"
FETCH_ATTEMPTS = "repro_fetch_attempts"
RECOMMENDATIONS = "repro_recommendations_total"
RESIDUAL_FACTOR = "repro_residual_factor"
FASTPATH_CELLS = "repro_fastpath_cells_total"
SERVE_REQUESTS = "repro_serve_requests_total"
SERVE_BATCHES = "repro_serve_batches_total"
SERVE_LATENCY = "repro_serve_request_seconds"
SERVE_QUEUE_DEPTH = "repro_serve_queue_depth"
SERVE_INFLIGHT = "repro_serve_inflight"
SERVE_BREAKER_STATE = "repro_serve_breaker_state"
SERVE_MEMO_ENTRIES = "repro_serve_memo_entries"
SERVE_MEMO_EVICTIONS = "repro_serve_memo_evictions"
SERVE_MEMO_HIT_RATE = "repro_serve_memo_hit_rate"

#: Bucket bounds for the amplification-factor distribution (factors span
#: ~1 to ~45000 across the paper's tables; roughly log-spaced).
AMPLIFICATION_BUCKETS = (1.0, 10.0, 50.0, 100.0, 500.0, 1000.0, 5000.0,
                         10000.0, 50000.0)
#: Bucket bounds for residual (post-mitigation) worst-case factors —
#: recommendations live below ~10, so the low end is finely spaced.
RESIDUAL_FACTOR_BUCKETS = (1.0, 2.0, 3.0, 5.0, 10.0, 50.0, 100.0, 1000.0)
#: Bucket bounds for runner cell latency (seconds).
CELL_SECONDS_BUCKETS = (0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 30.0, 60.0)
#: Bucket bounds for back-to-origin fetch attempt counts (the largest
#: vendor budget today is 4; headroom for custom policies).
FETCH_ATTEMPT_BUCKETS = (1.0, 2.0, 3.0, 4.0, 6.0, 8.0)
#: Bucket bounds for serve request latency (seconds): closed-form
#: answers land in the sub-millisecond buckets, exact simulations and
#: queue waits fill the tail.
SERVE_LATENCY_BUCKETS = (0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5,
                         1.0, 5.0, 30.0)
DEFAULT_BUCKETS = (0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0)


class MetricError(ReproError):
    """Raised on metric misuse (type clash, bucket mismatch, ...)."""


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    return tuple(sorted((name, str(value)) for name, value in labels.items()))


def _escape_label_value(value: str) -> str:
    """Escape per the exposition format: ``\\``, ``"``, and newlines."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _escape_help(text: str) -> str:
    """HELP text escaping: only ``\\`` and newlines are special."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _render_labels(key: LabelKey) -> str:
    if not key:
        return ""
    inner = ",".join(
        '{}="{}"'.format(name, _escape_label_value(value)) for name, value in key
    )
    return "{" + inner + "}"


class Counter:
    """A monotonically increasing value per label combination."""

    type_name = "counter"

    def __init__(self, name: str, help: str) -> None:
        self.name = name
        self.help = help
        self._values: Dict[LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if amount < 0:
            raise MetricError(f"counter {self.name} cannot decrease (got {amount})")
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        return self._values.get(_label_key(labels), 0.0)

    def samples(self) -> List[Dict[str, Any]]:
        return [
            {"labels": dict(key), "value": value}
            for key, value in sorted(self._values.items())
        ]

    def merge_samples(self, samples: Sequence[Dict[str, Any]]) -> None:
        for sample in samples:
            self.inc(sample["value"], **sample.get("labels", {}))

    def render(self) -> Iterator[str]:
        for key, value in sorted(self._values.items()):
            yield f"{self.name}{_render_labels(key)} {_format_value(value)}"


class Gauge:
    """A point-in-time value per label combination (last write wins)."""

    type_name = "gauge"

    def __init__(self, name: str, help: str) -> None:
        self.name = name
        self.help = help
        self._values: Dict[LabelKey, float] = {}

    def set(self, value: float, **labels: Any) -> None:
        self._values[_label_key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        return self._values.get(_label_key(labels), 0.0)

    def samples(self) -> List[Dict[str, Any]]:
        return [
            {"labels": dict(key), "value": value}
            for key, value in sorted(self._values.items())
        ]

    def merge_samples(self, samples: Sequence[Dict[str, Any]]) -> None:
        for sample in samples:
            self.set(sample["value"], **sample.get("labels", {}))

    def render(self) -> Iterator[str]:
        for key, value in sorted(self._values.items()):
            yield f"{self.name}{_render_labels(key)} {_format_value(value)}"


class Histogram:
    """A cumulative-bucket histogram per label combination."""

    type_name = "histogram"

    def __init__(
        self, name: str, help: str, buckets: Sequence[float] = DEFAULT_BUCKETS
    ) -> None:
        if list(buckets) != sorted(buckets) or len(set(buckets)) != len(tuple(buckets)):
            raise MetricError(f"histogram {name} buckets must be sorted and unique")
        self.name = name
        self.help = help
        self.buckets: Tuple[float, ...] = tuple(buckets)
        # Per label key: (per-bucket counts + overflow, sum, count).
        self._series: Dict[LabelKey, List[Any]] = {}

    def _row(self, key: LabelKey) -> List[Any]:
        row = self._series.get(key)
        if row is None:
            row = [[0] * (len(self.buckets) + 1), 0.0, 0]
            self._series[key] = row
        return row

    def observe(self, value: float, **labels: Any) -> None:
        row = self._row(_label_key(labels))
        counts, _, _ = row
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                counts[index] += 1
                break
        else:
            counts[len(self.buckets)] += 1
        row[1] += value
        row[2] += 1

    def count(self, **labels: Any) -> int:
        row = self._series.get(_label_key(labels))
        return row[2] if row else 0

    def sum(self, **labels: Any) -> float:
        row = self._series.get(_label_key(labels))
        return row[1] if row else 0.0

    def samples(self) -> List[Dict[str, Any]]:
        return [
            {
                "labels": dict(key),
                "buckets": list(row[0]),
                "sum": row[1],
                "count": row[2],
            }
            for key, row in sorted(self._series.items())
        ]

    def merge_samples(self, samples: Sequence[Dict[str, Any]]) -> None:
        for sample in samples:
            incoming = list(sample["buckets"])
            if len(incoming) != len(self.buckets) + 1:
                raise MetricError(
                    f"histogram {self.name}: cannot merge a snapshot with "
                    f"{len(incoming)} buckets into {len(self.buckets) + 1}"
                )
            row = self._row(_label_key(sample.get("labels", {})))
            for index, count in enumerate(incoming):
                row[0][index] += count
            row[1] += sample["sum"]
            row[2] += sample["count"]

    def render(self) -> Iterator[str]:
        for key, row in sorted(self._series.items()):
            counts, total, count = row
            cumulative = 0
            for index, bound in enumerate(self.buckets):
                cumulative += counts[index]
                labels = key + (("le", _format_value(bound)),)
                yield f"{self.name}_bucket{_render_labels(labels)} {cumulative}"
            cumulative += counts[len(self.buckets)]
            labels = key + (("le", "+Inf"),)
            yield f"{self.name}_bucket{_render_labels(labels)} {cumulative}"
            yield f"{self.name}_sum{_render_labels(key)} {_format_value(total)}"
            yield f"{self.name}_count{_render_labels(key)} {count}"


def _format_value(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return repr(value)


class MetricsRegistry:
    """Creates, owns, and exports metric families by name."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Any] = {}

    def _get_or_create(self, factory: Any, name: str, help: str, **kwargs: Any) -> Any:
        metric = self._metrics.get(name)
        if metric is None:
            metric = factory(name, help, **kwargs)
            self._metrics[name] = metric
            return metric
        if not isinstance(metric, factory):
            raise MetricError(
                f"metric {name!r} already registered as {metric.type_name}"
            )
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(
        self, name: str, help: str = "", buckets: Optional[Sequence[float]] = None
    ) -> Histogram:
        metric = self._get_or_create(
            Histogram, name, help,
            buckets=tuple(buckets) if buckets is not None else DEFAULT_BUCKETS,
        )
        if buckets is not None and metric.buckets != tuple(buckets):
            # Same-length different-bounds merges used to corrupt the
            # distribution silently; any explicit bound disagreement is
            # misuse.  Omitting ``buckets`` fetches whatever exists.
            raise MetricError(
                f"histogram {name!r} already registered with buckets "
                f"{list(metric.buckets)}, got {list(buckets)}"
            )
        return metric

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    # -- export / merge -----------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-able, deterministically ordered dump of every family."""
        out: Dict[str, Any] = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            entry: Dict[str, Any] = {
                "type": metric.type_name,
                "help": metric.help,
                "samples": metric.samples(),
            }
            if isinstance(metric, Histogram):
                entry["bucket_bounds"] = list(metric.buckets)
            out[name] = entry
        return out

    def merge_snapshot(self, snapshot: Dict[str, Any]) -> None:
        """Fold a :meth:`snapshot` into this registry.

        Counters and histograms add; gauges take the snapshot's value.
        This is how per-cell registries roll up into the run's.
        """
        for name, entry in snapshot.items():
            kind = entry.get("type")
            if kind == "counter":
                metric: Any = self.counter(name, entry.get("help", ""))
            elif kind == "gauge":
                metric = self.gauge(name, entry.get("help", ""))
            elif kind == "histogram":
                metric = self.histogram(
                    name,
                    entry.get("help", ""),
                    buckets=tuple(entry.get("bucket_bounds", DEFAULT_BUCKETS)),
                )
            else:
                raise MetricError(f"snapshot entry {name!r} has unknown type {kind!r}")
            metric.merge_samples(entry.get("samples", ()))

    def to_prometheus(self) -> str:
        """Render every family in Prometheus text exposition format."""
        lines: List[str] = []
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if metric.help:
                lines.append(f"# HELP {name} {_escape_help(metric.help)}")
            lines.append(f"# TYPE {name} {metric.type_name}")
            lines.extend(metric.render())
        return "\n".join(lines) + ("\n" if lines else "")

    # -- canonical pipeline instruments -------------------------------------

    def record_exchange(self, segment: str, record: Any) -> None:
        """Count one :class:`~repro.netsim.connection.ExchangeRecord`."""
        self.counter(SEGMENT_EXCHANGES, "exchanges per segment").inc(
            1, segment=segment
        )
        self.counter(SEGMENT_REQUEST_BYTES, "request-direction wire bytes").inc(
            record.request_bytes, segment=segment
        )
        self.counter(
            SEGMENT_RESPONSE_BYTES_SENT, "response wire bytes pushed by the server"
        ).inc(record.response_bytes_sent, segment=segment)
        self.counter(
            SEGMENT_RESPONSE_BYTES_DELIVERED,
            "response wire bytes that reached the client side",
        ).inc(record.response_bytes_delivered, segment=segment)

    def record_cache_lookup(self, vendor: str, hit: bool) -> None:
        self.counter(CACHE_LOOKUPS, "edge cache lookups by outcome").inc(
            1, vendor=vendor, result="hit" if hit else "miss"
        )

    def record_memo_lookup(self, memo: str, hit: bool) -> None:
        """Count one runner memo-table lookup by outcome.

        Worker processes warm per-process memo tables whose stats used
        to vanish with the process; recording lookups here lets the
        runner's cross-process snapshot merge surface them.
        """
        self.counter(MEMO_LOOKUPS, "runner memo lookups by outcome").inc(
            1, memo=memo, result="hit" if hit else "miss"
        )

    def record_rewrite(self, vendor: str, policy: str) -> None:
        self.counter(
            RANGE_REWRITES, "Range-header forwarding decisions by policy"
        ).inc(1, vendor=vendor, policy=policy)

    def record_amplification(self, factor: float, victim_segment: str) -> None:
        self.histogram(
            AMPLIFICATION_FACTOR,
            "amplification factors of completed attack runs",
            buckets=AMPLIFICATION_BUCKETS,
        ).observe(factor, victim_segment=victim_segment)

    def record_fault(self, site: str, kind: str) -> None:
        self.counter(FAULTS_INJECTED, "injected faults by site and kind").inc(
            1, site=site, kind=kind
        )

    def record_retry(self, vendor: str, delay_s: float) -> None:
        self.counter(FETCH_RETRIES, "back-to-origin fetch retries").inc(
            1, vendor=vendor
        )
        self.counter(
            RETRY_BACKOFF_SECONDS, "simulated backoff accrued before retries"
        ).inc(delay_s, vendor=vendor)

    def record_fetch_attempts(self, vendor: str, attempts: int, ok: bool) -> None:
        self.histogram(
            FETCH_ATTEMPTS,
            "attempts per back-to-origin fetch",
            buckets=FETCH_ATTEMPT_BUCKETS,
        ).observe(attempts, vendor=vendor, outcome="ok" if ok else "exhausted")

    def record_recommendation(
        self, kind: str, mitigation: str, sufficient: bool, residual_factor: float
    ) -> None:
        """Count one defense recommendation and observe its residual."""
        self.counter(
            RECOMMENDATIONS, "defense recommendations by finding kind and outcome"
        ).inc(
            1,
            kind=kind,
            mitigation=mitigation,
            outcome="sufficient" if sufficient else "insufficient",
        )
        self.histogram(
            RESIDUAL_FACTOR,
            "residual worst-case factors under recommended mitigations",
            buckets=RESIDUAL_FACTOR_BUCKETS,
        ).observe(residual_factor, kind=kind, mitigation=mitigation)

    def record_fastpath_cells(self, outcome: str, count: int = 1) -> None:
        """Count fast-path planner decisions by outcome
        (``answered`` / ``refused`` / ``ineligible``)."""
        self.counter(
            FASTPATH_CELLS, "fast-path planner cell decisions by outcome"
        ).inc(count, outcome=outcome)

    def record_serve_request(
        self, endpoint: str, outcome: str, seconds: float
    ) -> None:
        """Count one service request and observe its latency.

        ``outcome`` is ``ok``, ``shed``, ``deadline``, ``degraded`` or
        ``error``.
        """
        self.counter(
            SERVE_REQUESTS, "serve requests by endpoint and outcome"
        ).inc(1, endpoint=endpoint, outcome=outcome)
        self.histogram(
            SERVE_LATENCY,
            "serve request latency by endpoint",
            buckets=SERVE_LATENCY_BUCKETS,
        ).observe(seconds, endpoint=endpoint)

    def record_cell(self, experiment: str, seconds: float, ok: bool) -> None:
        self.counter(RUNNER_CELLS, "grid cells executed by status").inc(
            1, status="ok" if ok else "failed"
        )
        self.histogram(
            RUNNER_CELL_SECONDS,
            "wall seconds per grid cell",
            buckets=CELL_SECONDS_BUCKETS,
        ).observe(seconds, experiment=experiment)


# ---------------------------------------------------------------------------
# Context propagation
# ---------------------------------------------------------------------------

_ACTIVE_METRICS: ContextVar[Optional[MetricsRegistry]] = ContextVar(
    "repro_obs_metrics", default=None
)


def current_metrics() -> Optional[MetricsRegistry]:
    """The context's active registry, or ``None`` when metrics are off."""
    return _ACTIVE_METRICS.get()


@contextmanager
def use_metrics(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Install ``registry`` as the context's active metrics sink."""
    token = _ACTIVE_METRICS.set(registry)
    try:
        yield registry
    finally:
        _ACTIVE_METRICS.reset(token)
