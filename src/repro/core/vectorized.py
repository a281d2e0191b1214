"""Exact fast-path engines, one per measurement family.

* SBR and CCFC cells are one small request per round, so simulating
  one costs well under a millisecond.  :class:`SbrFastEngine` and
  :class:`CcfcFastEngine` answer with the simulation itself
  (``SbrAttack(...).run`` / ``CcfcAttack(...).run``): exact by
  construction, with nothing to calibrate.
* OBR sweeps the overlap count ``n``, and a Table V cell at its
  thousands-deep maximum costs tens of milliseconds to simulate.  The
  attack's ranges are the constant-width ``0-`` spec, so request and
  multipart payload sizes are affine in ``n``; the TCP framing model is
  then applied analytically.  :class:`ObrFastEngine` calibrates at a
  few small ``n`` (milliseconds) and evaluates at the Table V maximum
  without building the multipart at all.

Every engine refuses — raising :class:`ExactModelError` — a cell it
cannot answer exactly: an unknown vendor, a degenerate size, or an OBR
cascade whose verification probes break the affine model or whose
segment connection structure is not invertible.  The caller
(``repro.runner.fastpath``) falls back to the wire-level simulation, so
a refusal costs speed, never correctness.

The differential harness (``tests/analysis/test_fastpath_equivalence``)
pins OBR result equality against the simulation for every Table V cell
and for hypothesis-random overlap counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.cdn.vendors import all_vendor_names
from repro.core.amplification import AmplificationReport
from repro.core.ccfc import CcfcAttack, CcfcResult
from repro.core.obr import ObrAttack, ObrResult
from repro.core.sbr import SbrAttack, SbrResult
from repro.errors import ReproError
from repro.netsim.overhead import OverheadModel
from repro.netsim.tap import CLIENT_CDN, SegmentStats


class ExactModelError(ReproError):
    """The engine cannot exactly answer this cell — simulate."""


def _check_cell(vendor: str, resource_size: int, min_size: int, rounds: int) -> None:
    """Refuse what the simulation would reject: unknown vendors and
    degenerate sizes or round counts."""
    if vendor not in all_vendor_names():
        raise ExactModelError(f"unknown vendor {vendor!r}")
    if resource_size < min_size or rounds < 1:
        raise ExactModelError("degenerate cell")


# ---------------------------------------------------------------------------
# SBR and CCFC: vendor x resource-size cells, answered by simulation
# ---------------------------------------------------------------------------


class SbrFastEngine:
    """Answers SBR cells with the wire-level simulation."""

    def measure(self, vendor: str, resource_size: int, rounds: int = 1) -> SbrResult:
        """``SbrAttack(vendor, resource_size).run(rounds)``."""
        _check_cell(vendor, resource_size, 2, rounds)
        return SbrAttack(vendor, resource_size=resource_size).run(rounds=rounds)


class CcfcFastEngine:
    """Answers CCFC (compression-conversion) cells with the wire-level
    simulation."""

    def measure(
        self, vendor: str, resource_size: int, rounds: int = 1
    ) -> CcfcResult:
        """``CcfcAttack(vendor, resource_size).run(rounds)``."""
        _check_cell(vendor, resource_size, 1, rounds)
        return CcfcAttack(vendor, resource_size=resource_size).run(rounds=rounds)


# ---------------------------------------------------------------------------
# OBR: fcdn x bcdn cascade cells, swept over the overlap count n
# ---------------------------------------------------------------------------


def _fit_affine(points: Sequence[Tuple[int, int]]) -> Tuple[int, int, int]:
    """Fit ``v(x) = base + slope * (x - x0)`` exactly; returns
    ``(x0, base, slope)``.

    The first two ``(x, v)`` points determine the coefficients and every
    remaining point must verify them, else :class:`ExactModelError`.
    """
    if len(points) < 2:
        raise ExactModelError("affine fit needs at least two probes")
    (x0, v0), (x1, v1) = points[0], points[1]
    if x1 == x0:
        raise ExactModelError("degenerate probe spacing")
    slope, remainder = divmod(v1 - v0, x1 - x0)
    if remainder:
        raise ExactModelError("non-integer slope")
    for x, value in points[2:]:
        if value != v0 + slope * (x - x0):
            raise ExactModelError(f"affine model breaks at probe {x}")
    return (x0, v0, slope)


#: Calibration overlap counts.  2 and 3 fit the affine payloads; 4 and 5
#: verify them; 9 pushes the multipart body across a decimal-digit
#: boundary so an unpadded Content-Length (which would break affinity at
#: large n) is caught here instead of silently extrapolated.
_OBR_PROBES = (2, 3, 4, 5, 9)

#: Delivered-bytes modes a segment can calibrate into.
_UNCAPPED = 0
_CAPPED = 1


def _invert_framed(model: OverheadModel, framed: int) -> int:
    """The unique payload ``x`` with ``framed_size(x) == framed``.

    ``framed_size`` is strictly increasing for every model here, so a
    binary search either finds the exact preimage or proves the recorded
    value was not a single framed payload."""
    lo, hi = 0, framed
    while lo < hi:
        mid = (lo + hi) // 2
        if model.framed_size(mid) < framed:
            lo = mid + 1
        else:
            hi = mid
    if model.framed_size(lo) != framed:
        raise ExactModelError(f"no payload frames to {framed} bytes")
    return lo


@dataclass(frozen=True)
class _ObrSegmentModel:
    """Per-segment affine payload model (in the overlap count n)."""

    request_x0: int
    request_base: int
    request_slope: int
    response_x0: int
    response_base: int
    response_slope: int
    delivered_mode: int
    delivered_cap: int


@dataclass(frozen=True)
class ObrCascadeModel:
    """Calibrated exact model for one FCDN x BCDN cascade."""

    fcdn: str
    bcdn: str
    resource_size: int
    status: int
    attacker_segment: str
    victim_segment: str
    segment_names: Tuple[str, ...]
    segments: Mapping[str, _ObrSegmentModel]
    range_value_x0: int
    range_value_base: int
    range_value_slope: int
    overhead: OverheadModel

    def evaluate(self, overlap_count: int) -> ObrResult:
        if overlap_count < 2:
            raise ExactModelError("model calibrated for n >= 2")
        n = overlap_count
        setup = self.overhead.connection_setup_bytes()
        stats: Dict[str, SegmentStats] = {}
        for name in self.segment_names:
            seg = self.segments[name]
            request = self.overhead.framed_size(
                seg.request_base + seg.request_slope * (n - seg.request_x0)
            )
            sent = (
                self.overhead.framed_size(
                    seg.response_base + seg.response_slope * (n - seg.response_x0)
                )
                + setup
            )
            if seg.delivered_mode == _UNCAPPED:
                delivered = sent
            else:
                if sent < seg.delivered_cap:
                    raise ExactModelError(
                        f"{name}: sent bytes fell below the calibrated cap"
                    )
                delivered = seg.delivered_cap
            stats[name] = SegmentStats(
                segment=name,
                connection_count=1,
                exchange_count=1,
                request_bytes=request,
                response_bytes_sent=sent,
                response_bytes_delivered=delivered,
            )
        report = AmplificationReport(
            attacker_bytes=stats[self.attacker_segment].response_bytes_delivered,
            victim_bytes=stats[self.victim_segment].response_bytes_delivered,
            attacker_segment=self.attacker_segment,
            victim_segment=self.victim_segment,
            segments=stats,
        )
        return ObrResult(
            fcdn=self.fcdn,
            bcdn=self.bcdn,
            resource_size=self.resource_size,
            overlap_count=n,
            range_value_size=self.range_value_base
            + self.range_value_slope * (n - self.range_value_x0),
            bcdn_origin_traffic=report.attacker_bytes,
            fcdn_bcdn_traffic=report.victim_bytes,
            client_traffic=stats[CLIENT_CDN].response_bytes_delivered,
            status=self.status,
            report=report,
        )


class ObrFastEngine:
    """Answers OBR cascade measurements from calibrated models.

    Calibration runs the real attack at a few small overlap counts
    (milliseconds — tiny multiparts), decomposes every recorded wire
    size back into its payload through the framing model, fits the
    affine payload laws, and verifies them.  Evaluation at the Table V
    maxima then never builds a message object."""

    def __init__(self) -> None:
        self._models: Dict[Tuple[str, str, int], ObrCascadeModel] = {}
        self.calibration_runs = 0

    def _calibrate(self, fcdn: str, bcdn: str, resource_size: int) -> ObrCascadeModel:
        attack = ObrAttack(fcdn, bcdn, resource_size=resource_size)
        overhead = attack.overhead
        setup = overhead.connection_setup_bytes()
        runs: List[ObrResult] = []
        for n in _OBR_PROBES:
            runs.append(attack.run(overlap_count=n))
            self.calibration_runs += 1

        first = runs[0]
        segment_names = tuple(first.report.segments)
        for run in runs:
            if run.status != first.status:
                raise ExactModelError("status varies across calibration probes")
            if tuple(run.report.segments) != segment_names:
                raise ExactModelError("segment set varies across calibration probes")
            for name in segment_names:
                stats = run.report.segments[name]
                if stats.connection_count != 1 or stats.exchange_count != 1:
                    raise ExactModelError(
                        f"{name}: framing is only invertible for single-exchange "
                        "segments"
                    )

        range_x0, range_base, range_slope = _fit_affine(
            [(n, run.range_value_size) for n, run in zip(_OBR_PROBES, runs)]
        )

        segments: Dict[str, _ObrSegmentModel] = {}
        for name in segment_names:
            request_points: List[Tuple[int, int]] = []
            response_points: List[Tuple[int, int]] = []
            delivered_values: List[int] = []
            sent_values: List[int] = []
            for n, run in zip(_OBR_PROBES, runs):
                stats = run.report.segments[name]
                request_points.append((n, _invert_framed(overhead, stats.request_bytes)))
                response_points.append(
                    (n, _invert_framed(overhead, stats.response_bytes_sent - setup))
                )
                delivered_values.append(stats.response_bytes_delivered)
                sent_values.append(stats.response_bytes_sent)
            request_x0, request_base, request_slope = _fit_affine(request_points)
            response_x0, response_base, response_slope = _fit_affine(response_points)
            if delivered_values == sent_values:
                mode, cap = _UNCAPPED, 0
            elif len(set(delivered_values)) == 1 and all(
                sent >= delivered_values[0] for sent in sent_values
            ):
                mode, cap = _CAPPED, delivered_values[0]
            else:
                raise ExactModelError(f"{name}: unrecognized delivery-cap pattern")
            segments[name] = _ObrSegmentModel(
                request_x0=request_x0,
                request_base=request_base,
                request_slope=request_slope,
                response_x0=response_x0,
                response_base=response_base,
                response_slope=response_slope,
                delivered_mode=mode,
                delivered_cap=cap,
            )

        return ObrCascadeModel(
            fcdn=fcdn,
            bcdn=bcdn,
            resource_size=resource_size,
            status=first.status,
            attacker_segment=first.report.attacker_segment,
            victim_segment=first.report.victim_segment,
            segment_names=segment_names,
            segments=segments,
            range_value_x0=range_x0,
            range_value_base=range_base,
            range_value_slope=range_slope,
            overhead=overhead,
        )

    def model_for(
        self, fcdn: str, bcdn: str, resource_size: int = 1024
    ) -> ObrCascadeModel:
        key = (fcdn, bcdn, resource_size)
        model = self._models.get(key)
        if model is None:
            model = self._calibrate(fcdn, bcdn, resource_size)
            self._models[key] = model
        return model

    def measure(
        self,
        fcdn: str,
        bcdn: str,
        resource_size: int = 1024,
        overlap_count: Optional[int] = None,
    ) -> ObrResult:
        """An :class:`ObrResult` equal to ``ObrAttack(...).run(overlap_count)``.

        ``overlap_count=None`` resolves the Table V maximum through
        :func:`repro.analysis.bounds.static_max_n`, which the simulated
        probe search agrees with exactly (pinned by the cross-check and
        differential suites)."""
        from repro.analysis.bounds import static_max_n

        n = overlap_count
        if n is None:
            n = static_max_n(fcdn, bcdn, resource_size=resource_size)
        if n < 1:
            # Mirror ObrAttack.run's refusal for non-exploitable cascades.
            raise ExactModelError(f"{fcdn} -> {bcdn} admits no overlapping ranges")
        return self.model_for(fcdn, bcdn, resource_size).evaluate(n)


__all__ = [
    "CcfcFastEngine",
    "ExactModelError",
    "ObrCascadeModel",
    "ObrFastEngine",
    "SbrFastEngine",
]
