"""Live progress reporting for long grid runs.

`run-all` sweeps ~350 cells; on a laptop that is minutes of silence
without this.  :class:`ProgressReporter` is the observer the
:class:`~repro.runner.executor.GridRunner` calls after every finished
cell — it renders a single status line (done/failed counts, ETA from
the observed rate, and the label of the most recent cell, e.g. the
current vendor×size) and keeps rewriting it in place on a TTY or
emitting periodic plain lines on anything else (CI logs).
"""

from __future__ import annotations

import sys
import time
from typing import Any

#: Least time between two plain (non-TTY) progress lines.
EMIT_INTERVAL_S = 2.0


def _format_eta(seconds: float) -> str:
    if seconds < 0 or seconds != seconds:  # negative or NaN
        return "?"
    seconds = int(round(seconds))
    if seconds >= 3600:
        return f"{seconds // 3600}h{(seconds % 3600) // 60:02d}m"
    if seconds >= 60:
        return f"{seconds // 60}m{seconds % 60:02d}s"
    return f"{seconds}s"


class ProgressReporter:
    """Streams one progress line per finished grid cell.

    Use as the runner's ``observer`` callback, which also tells it the
    cell total::

        runner = GridRunner(observer=ProgressReporter())

    It writes to stderr.  On a TTY the line is redrawn in place
    (``\\r``); otherwise a plain line is printed at most every
    ``EMIT_INTERVAL_S`` seconds (and always for the final cell) so CI
    logs stay readable.
    """

    def __init__(self, prefix: str = "run") -> None:
        self.total = 0
        self.stream = sys.stderr
        self.prefix = prefix
        self.done = 0
        self.failed = 0
        self._started = time.perf_counter()
        self._last_emit = 0.0
        self._is_tty = bool(getattr(self.stream, "isatty", lambda: False)())
        self._line_open = False

    # The runner calls this as observer(outcome, done, total).
    def __call__(self, outcome: Any, done: int, total: int) -> None:
        self.done = done
        self.total = total or self.total
        if outcome is not None and not getattr(outcome, "ok", True):
            self.failed += 1
        label = ""
        if outcome is not None:
            label = getattr(getattr(outcome, "cell", None), "label", "") or ""
        self.update(label)

    def update(self, label: str = "") -> None:
        now = time.perf_counter()
        final = self.total and self.done >= self.total
        if not self._is_tty and not final and (now - self._last_emit) < EMIT_INTERVAL_S:
            return
        self._last_emit = now
        line = self._render(label, now)
        if self._is_tty:
            self.stream.write("\r" + line + "\x1b[K")
            self._line_open = True
            if final:
                self.stream.write("\n")
                self._line_open = False
        else:
            self.stream.write(line + "\n")
        self.stream.flush()

    def _render(self, label: str, now: float) -> str:
        elapsed = now - self._started
        parts = [f"{self.prefix}: {self.done}/{self.total or '?'} cells"]
        if self.failed:
            parts.append(f"{self.failed} failed")
        if self.done and self.total and self.done < self.total:
            eta = elapsed / self.done * (self.total - self.done)
            parts.append(f"eta {_format_eta(eta)}")
        elif self.total and self.done >= self.total:
            parts.append(f"done in {_format_eta(elapsed)}")
        if label:
            parts.append(label)
        return " | ".join(parts)

    def close(self) -> None:
        """Terminate an in-place line so later output starts clean."""
        if self._line_open:
            self.stream.write("\n")
            self.stream.flush()
            self._line_open = False
