"""The ``run-all --profile`` report: where did the time and bytes go?

A profile is built from three ingredients the runner already has:

* one :class:`CellProfile` per executed grid cell (every cell appears,
  including failed ones),
* per-experiment :class:`~repro.runner.executor.CellTiming` aggregates
  (total/max/mean, failed-cell time),
* optionally, a metrics snapshot whose ``repro_segment_*`` counters
  give the per-segment byte rollup.

:func:`render_profile` turns them into a plain-text artifact that CI
uploads per PR, so a perf regression shows up as a diff in the slowest
cells table rather than as a vague "run-all got slower".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence

#: How many of the slowest cells the profile lists.
SLOWEST_CELLS = 10


@dataclass(frozen=True)
class CellProfile:
    """One grid cell's identity and cost, flattened for reporting."""

    experiment: str
    label: str
    ok: bool
    duration_s: float

    def to_dict(self) -> Dict[str, Any]:
        return {
            "experiment": self.experiment,
            "label": self.label,
            "ok": self.ok,
            "duration_s": self.duration_s,
        }


def _fmt_seconds(seconds: float) -> str:
    return f"{seconds:9.3f}s"


def _fmt_bytes(count: float) -> str:
    value = float(count)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024.0 or unit == "GiB":
            return f"{value:8.1f} {unit}" if unit != "B" else f"{int(value):8d} B"
        value /= 1024.0
    return f"{value:8.1f} GiB"


def _segment_bytes(snapshot: Mapping[str, Any]) -> Dict[str, Dict[str, float]]:
    """Pull the per-segment byte counters out of a metrics snapshot."""
    columns = {
        "repro_segment_request_bytes_total": "request",
        "repro_segment_response_bytes_sent_total": "sent",
        "repro_segment_response_bytes_delivered_total": "delivered",
    }
    table: Dict[str, Dict[str, float]] = {}
    for metric, column in columns.items():
        entry = snapshot.get(metric)
        if not entry:
            continue
        for sample in entry.get("samples", ()):
            segment = sample.get("labels", {}).get("segment", "?")
            table.setdefault(segment, {})[column] = sample["value"]
    return table


def render_profile(
    cells: Sequence[CellProfile],
    timings: Mapping[str, Any],
    total_s: float,
    metrics_snapshot: Optional[Mapping[str, Any]] = None,
) -> str:
    """Render the plain-text profile report.

    ``timings`` maps experiment name to a
    :class:`~repro.runner.executor.CellTiming`; ``cells`` must contain
    **every** executed cell (the acceptance bar for ``--profile``).
    """
    lines: List[str] = []
    lines.append("run-all profile")
    lines.append("=" * 60)
    cell_total = sum(cell.duration_s for cell in cells)
    failed = [cell for cell in cells if not cell.ok]
    lines.append(
        f"wall {total_s:.3f}s | "
        f"cell-seconds {cell_total:.3f}s | cells {len(cells)} "
        f"({len(failed)} failed)"
    )

    lines.append("")
    lines.append("per-experiment timing")
    lines.append("-" * 60)
    header = (
        f"{'experiment':<22} {'cells':>5} {'fail':>4} "
        f"{'total':>10} {'max':>10} {'mean':>10} {'failed-s':>10}"
    )
    lines.append(header)
    for name in sorted(timings):
        timing = timings[name]
        lines.append(
            f"{name:<22} {timing.count:>5} {timing.failed_count:>4} "
            f"{_fmt_seconds(timing.total_s)} {_fmt_seconds(timing.max_s)} "
            f"{_fmt_seconds(timing.mean_s)} {_fmt_seconds(timing.failed_s)}"
        )

    if cells:
        lines.append("")
        lines.append(f"slowest {min(SLOWEST_CELLS, len(cells))} cells")
        lines.append("-" * 60)
        ranked = sorted(cells, key=lambda cell: cell.duration_s, reverse=True)
        for cell in ranked[:SLOWEST_CELLS]:
            flag = "" if cell.ok else "  [FAILED]"
            lines.append(
                f"{_fmt_seconds(cell.duration_s)}  {cell.experiment}:{cell.label}{flag}"
            )

    if metrics_snapshot:
        table = _segment_bytes(metrics_snapshot)
        if table:
            lines.append("")
            lines.append("per-segment wire bytes (all runs)")
            lines.append("-" * 60)
            lines.append(
                f"{'segment':<16} {'request':>12} {'sent':>14} {'delivered':>14}"
            )
            for segment in sorted(table):
                row = table[segment]
                lines.append(
                    f"{segment:<16} {_fmt_bytes(row.get('request', 0)):>12} "
                    f"{_fmt_bytes(row.get('sent', 0)):>14} "
                    f"{_fmt_bytes(row.get('delivered', 0)):>14}"
                )

    lines.append("")
    lines.append("all cells (grid order)")
    lines.append("-" * 60)
    for cell in cells:
        status = "ok" if cell.ok else "FAILED"
        lines.append(
            f"{_fmt_seconds(cell.duration_s)}  {status:<6} "
            f"{cell.experiment}:{cell.label}"
        )
    return "\n".join(lines) + "\n"
