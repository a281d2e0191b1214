"""Times measured at a fixed reference speed of the CPU.

On a shared virtual machine the speed of a virtual CPU changes by up to
2x within a tenth of a second, with whatever else the host runs, and
the CPU time of a process slows exactly as much as its wall time: it is
the core that runs slower, not time taken away.  Raw timings of the
same work then spread by 20-40% from run to run.

:class:`SpeedSampler` measures that speed while the program runs.
Every :data:`INTERVAL_S` an interval timer interrupts the process and a
signal handler times one pass of a fixed pure-Python :class:`Kernel`;
the samples are spread evenly over wall time, so their mean rate is the
CPU's mean speed over any interval they cover.  An interval of work is
then converted to seconds at the reference speed, the speed at which
one pass of the kernel takes :data:`REFERENCE_KERNEL_S` (a little
faster than any speed measured on a 2-core x86 container):
``(wall - sampler time) x speed``.

The kernel mixes two kinds of work because they slow differently under
contention: a tight loop of formatting, parsing and small objects slows
more than the program does, and a walk over a ring of objects too big
for the core's caches slows less.  Mixed, the converted time of an
audit, simulate or reproduce operation repeated 42-200 times in one
process on a busy host spread 3-6% (IQR over median) where wall time
spread 20-27%, and did not follow the host's speed (a log-log slope of
-0.04 to +0.02 over a 2x range of speeds).  Spells in which the host
slows the program more than the kernel, or less, still shift whole
runs by a few percent.

The handler runs in the main thread, between bytecodes, and costs 2-3%
of the time it samples; that time, and the 30-40 ms spent building the
ring, are measured and subtracted.
"""

from __future__ import annotations

import random
import signal
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

INTERVAL_S = 0.005
#: One pass of :meth:`Kernel.run` at the reference speed.
REFERENCE_KERNEL_S = 80e-6
FORMAT_PASSES = 40
#: 30,000 objects take about 3 MB, more than a core's own caches hold.
RING_NODES = 30_000
RING_STEPS = 75


class _Range:
    __slots__ = ("first", "last")

    def __init__(self, first: int, last: int) -> None:
        self.first, self.last = first, last

    def length(self) -> int:
        return self.last - self.first + 1


class _Node:
    __slots__ = ("value", "name", "next")

    def __init__(self, value: int) -> None:
        self.value = value
        self.name = "node-%d" % value
        self.next: Optional[_Node] = None


class Kernel:
    """Fixed interpreter work: formatting, parsing and small objects,
    then a walk over a ring of objects linked in shuffled order."""

    def __init__(self) -> None:
        nodes = [_Node(i) for i in range(RING_NODES)]
        order = list(range(RING_NODES))
        random.Random(0).shuffle(order)
        for here, there in zip(order, order[1:] + order[:1]):
            nodes[here].next = nodes[there]
        self._cursor = nodes[0]

    def run(self) -> int:
        seen: Dict[str, _Range] = {}
        total = 0
        for i in range(FORMAT_PASSES):
            text = "bytes=%d-%d" % (i, i * 7 + 3)
            first, _, last = text[6:].partition("-")
            spec = _Range(int(first), int(last))
            seen[text] = spec
            total += spec.length()
        node = self._cursor
        for _ in range(RING_STEPS):
            total += node.value + len(node.name)
            node = node.next  # type: ignore[assignment]
        self._cursor = node
        return total + len(seen)


@dataclass(frozen=True)
class Totals:
    """Cumulative sampler counts; the difference of two covers the
    interval between them."""

    samples: int = 0
    #: Sum over samples of kernel passes per second.
    rate_sum: float = 0.0
    #: Seconds spent in the sampler.
    spent_s: float = 0.0

    def __sub__(self, other: "Totals") -> "Totals":
        return Totals(
            self.samples - other.samples,
            self.rate_sum - other.rate_sum,
            self.spent_s - other.spent_s,
        )

    def speed(self) -> float:
        """Mean CPU speed over the samples; 1.0 is the reference speed."""
        if not self.samples:
            raise ValueError("no speed samples cover the interval")
        return self.rate_sum / self.samples * REFERENCE_KERNEL_S

    def reference_s(self, seconds: float) -> float:
        """``seconds`` of wall or CPU time that these samples cover, less
        the sampler's own time, at the reference speed."""
        return (seconds - self.spent_s) * self.speed()

    def to_json(self) -> List[float]:
        return [self.samples, self.rate_sum, self.spent_s]

    @classmethod
    def from_json(cls, values: List[float]) -> "Totals":
        return cls(int(values[0]), float(values[1]), float(values[2]))


class SpeedSampler:
    """Samples the CPU's speed on ``SIGALRM`` from :meth:`start` until
    :meth:`stop`."""

    def __init__(self, interval_s: float = INTERVAL_S) -> None:
        started = time.perf_counter()
        self.interval_s = interval_s
        self._kernel = Kernel()
        self._samples = 0
        self._rate_sum = 0.0
        self._spent_s = time.perf_counter() - started
        self._previous: Any = None

    def _sample(self, signum: int, frame: Any) -> None:
        started = time.perf_counter()
        self._kernel.run()
        elapsed = time.perf_counter() - started
        self._samples += 1
        self._rate_sum += 1.0 / elapsed
        self._spent_s += time.perf_counter() - started

    def start(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def totals(self) -> Totals:
        return Totals(self._samples, self._rate_sum, self._spent_s)
