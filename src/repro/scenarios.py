"""Declarative experiment scenarios.

A scenario is a JSON document describing a batch of experiments to run —
the shape a downstream user wants for CI jobs or repeated evaluations::

    {
      "name": "nightly",
      "experiments": [
        {"type": "sbr", "vendor": "akamai", "size_mb": 25},
        {"type": "obr", "fcdn": "cloudflare", "bcdn": "akamai"},
        {"type": "flood", "m": 12},
        {"type": "survey"}
      ]
    }

:func:`run_scenario` executes the batch and returns structured results;
``python -m repro scenario file.json`` prints them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.analysis.classify import MAX_FLOOD_M, MAX_OVERLAPS
from repro.cdn.vendors import all_vendor_names
from repro.core.feasibility import survey
from repro.core.obr import ObrAttack
from repro.core.practical import BandwidthAttackSimulation
from repro.core.sbr import SbrAttack
from repro.errors import ConfigurationError

MB = 1 << 20

VALID_TYPES = ("sbr", "obr", "flood", "survey")


@dataclass(frozen=True)
class ExperimentOutcome:
    """One experiment's structured result."""

    type: str
    parameters: Dict[str, Any]
    metrics: Dict[str, Any]


@dataclass
class ScenarioOutcome:
    """A completed scenario run."""

    name: str
    outcomes: List[ExperimentOutcome] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "experiments": [
                {"type": o.type, "parameters": o.parameters, "metrics": o.metrics}
                for o in self.outcomes
            ],
        }


def load_scenario(path: Union[str, Path]) -> Dict[str, Any]:
    """Load and structurally validate a scenario file."""
    try:
        spec = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"cannot load scenario {path}: {exc}") from exc
    validate_scenario(spec)
    return spec


def validate_scenario(spec: Dict[str, Any]) -> None:
    """Raise :class:`ConfigurationError` for structural problems."""
    if not isinstance(spec, dict):
        raise ConfigurationError("scenario must be a JSON object")
    if not isinstance(spec.get("name"), str) or not spec["name"]:
        raise ConfigurationError("scenario needs a non-empty 'name'")
    experiments = spec.get("experiments")
    if not isinstance(experiments, list) or not experiments:
        raise ConfigurationError("scenario needs a non-empty 'experiments' list")
    for index, experiment in enumerate(experiments):
        if not isinstance(experiment, dict):
            raise ConfigurationError(f"experiment #{index} must be an object")
        kind = experiment.get("type")
        if kind not in VALID_TYPES:
            raise ConfigurationError(
                f"experiment #{index}: unknown type {kind!r} "
                f"(expected one of {VALID_TYPES})"
            )
        if kind == "sbr":
            vendor = experiment.get("vendor")
            if vendor not in all_vendor_names():
                raise ConfigurationError(
                    f"experiment #{index}: unknown vendor {vendor!r}"
                )
            _check_int(index, experiment, "size_mb", 1)
            _check_int(index, experiment, "rounds", 1)
        if kind == "obr":
            for role in ("fcdn", "bcdn"):
                vendor = experiment.get(role)
                if vendor not in all_vendor_names():
                    raise ConfigurationError(
                        f"experiment #{index}: unknown {role} {vendor!r}"
                    )
            # 0 (like an absent value) searches the cascade's max n.
            _check_int(index, experiment, "overlaps", 0, MAX_OVERLAPS)
        if kind == "flood":
            _check_int(index, experiment, "m", 0, MAX_FLOOD_M)


def _check_int(
    index: int,
    experiment: Dict[str, Any],
    key: str,
    low: int,
    high: Optional[int] = None,
) -> None:
    """Reject a present ``key`` that is not an int in ``low..high``."""
    if key not in experiment:
        return
    value = experiment[key]
    if (
        isinstance(value, bool)
        or not isinstance(value, int)
        or value < low
        or (high is not None and value > high)
    ):
        expected = f"{low}..{high}" if high is not None else f">= {low}"
        raise ConfigurationError(
            f"experiment #{index}: {key!r} must be an integer {expected}, "
            f"got {value!r}"
        )


def run_scenario(spec: Dict[str, Any]) -> ScenarioOutcome:
    """Execute a validated scenario."""
    validate_scenario(spec)
    outcome = ScenarioOutcome(name=spec["name"])
    for experiment in spec["experiments"]:
        outcome.outcomes.append(_run_experiment(experiment))
    return outcome


def _run_experiment(experiment: Dict[str, Any]) -> ExperimentOutcome:
    kind = experiment["type"]
    if kind == "sbr":
        return _run_sbr(experiment)
    if kind == "obr":
        return _run_obr(experiment)
    if kind == "flood":
        return _run_flood(experiment)
    return _run_survey(experiment)


def _run_sbr(experiment: Dict[str, Any]) -> ExperimentOutcome:
    vendor = experiment["vendor"]
    size_mb = experiment.get("size_mb", 10)
    rounds = experiment.get("rounds", 1)
    result = SbrAttack(vendor, resource_size=size_mb * MB).run(rounds=rounds)
    return ExperimentOutcome(
        type="sbr",
        parameters={"vendor": vendor, "size_mb": size_mb, "rounds": rounds},
        metrics={
            "amplification": round(result.amplification, 2),
            "origin_traffic": result.origin_traffic,
            "client_traffic": result.client_traffic,
        },
    )


def _run_obr(experiment: Dict[str, Any]) -> ExperimentOutcome:
    fcdn, bcdn = experiment["fcdn"], experiment["bcdn"]
    overlaps = experiment.get("overlaps")
    attack = ObrAttack(fcdn, bcdn)
    result = attack.run(overlap_count=overlaps or None)
    return ExperimentOutcome(
        type="obr",
        parameters={"fcdn": fcdn, "bcdn": bcdn, "overlaps": result.overlap_count},
        metrics={
            "amplification": round(result.amplification, 2),
            "fcdn_bcdn_traffic": result.fcdn_bcdn_traffic,
            "bcdn_origin_traffic": result.bcdn_origin_traffic,
        },
    )


def _run_flood(experiment: Dict[str, Any]) -> ExperimentOutcome:
    m = experiment.get("m", 12)
    vendor = experiment.get("vendor", "cloudflare")
    uplink = float(experiment.get("uplink_mbps", 1000.0))
    simulation = BandwidthAttackSimulation(vendor=vendor, origin_uplink_mbps=uplink)
    result = simulation.run(m)
    return ExperimentOutcome(
        type="flood",
        parameters={"vendor": vendor, "m": m, "uplink_mbps": uplink},
        metrics={
            "steady_origin_mbps": round(result.steady_origin_mbps, 1),
            "peak_client_kbps": round(result.peak_client_kbps, 1),
            "saturated": result.saturated,
        },
    )


def _run_survey(experiment: Dict[str, Any]) -> ExperimentOutcome:
    file_size = int(experiment.get("file_size", 16 * 1024))
    results = survey(file_size=file_size)
    return ExperimentOutcome(
        type="survey",
        parameters={"file_size": file_size},
        metrics={
            "sbr_vulnerable": sorted(
                v for v, r in results.items() if r.sbr_vulnerable
            ),
            "obr_frontends": sorted(
                v for v, r in results.items() if r.obr_fcdn_vulnerable
            ),
            "obr_backends": sorted(
                v for v, r in results.items() if r.obr_bcdn_vulnerable
            ),
        },
    )
