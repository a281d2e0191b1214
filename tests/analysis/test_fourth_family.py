"""A family defined here, and nowhere else, runs everywhere families do.

Registering one :class:`~repro.families.base.AttackFamily` record is the
whole of adding a family: ``analyze`` (table and JSON), ``recommend``,
``run_all`` (its cells run, its table is written, its factors reach the
ledger), ``repro serve`` and ``repro purity`` (its cell function gets a
dispatch edge) pick it up with no other edit.
"""

from __future__ import annotations

import json
from typing import Any, List, Mapping, NamedTuple, Optional, Sequence

import pytest

from repro.analysis.families import FAMILIES, FAMILIES_BY_NAME
from repro.analysis.purity import default_config
from repro.analysis.report import Finding
from repro.cli import main
from repro.families.base import (
    COST_CONFIG_ONLY,
    VENDOR,
    AttackFamily,
    MitigationSpec,
    Subject,
    Sweep,
)
from repro.runner.grid import ExperimentCell
from repro.runner.runall import run_all, write_report
from repro.serve.app import AnalysisService
from tests.serve.conftest import batch_request, body_json

#: The one vendor the toy attack amplifies through, and by how much.
TOY_VENDOR = "akamai"
TOY_FACTOR = 20.0


class ToyResult(NamedTuple):
    vendor: str
    resource_size: int
    amplification: float


def _finding(
    subject: Subject, size: int, overhead: Any, configs: Optional[Sequence[Any]]
) -> Finding:
    (vendor,) = subject
    if vendor != TOY_VENDOR:
        return Finding("safe", "info", vendor, "none", 0.0, f"{vendor}: no toy vector")
    return Finding(
        kind="toy",
        severity="medium",
        subject=vendor,
        mechanism="toy",
        factor_bound=TOY_FACTOR,
        detail=f"toy amplification at {size}B",
        data={"resource_size": size},
    )


def _measure(vendor: str, resource_size: int) -> ToyResult:
    factor = TOY_FACTOR if vendor == TOY_VENDOR else 1.0
    return ToyResult(vendor, resource_size, factor)


def _sweep(vendors: Sequence[str], quick: bool) -> Sweep:
    keys = [(vendor, 4096) for vendor in vendors]

    def tables(values: Mapping[Any, Any]) -> List[Any]:
        rows = [[key[0], f"{values[key].amplification:.1f}"] for key in keys]
        return [("table_toy", "Toy - a test-only family", ["CDN", "Factor"], rows)]

    cells = [ExperimentCell.make("toy", key) for key in keys]
    return Sweep(cells=cells, ledger=keys, tables=tables)


TOY = AttackFamily(
    name="toy",
    shape=VENDOR,
    default_size=4096,
    size_kwarg="toy_resource_size",
    size_flag="--toy-size",
    size_unit=1,
    finding=_finding,
    lists_safe=False,
    deployment_sizes=lambda sizes: sizes[:1],
    mitigations=(
        MitigationSpec("laziness", "cdn", COST_CONFIG_ONLY, 0, "stop playing"),
    ),
    residual=lambda subject, spec, size: 1.0,
    simulate=lambda subject, size, spec: TOY_FACTOR if spec is None else 1.0,
    sweeps_sizes=False,
    measure=_measure,
    sweep=_sweep,
)


@pytest.fixture
def toy():
    FAMILIES.append(TOY)
    FAMILIES_BY_NAME[TOY.name] = TOY
    try:
        yield TOY
    finally:
        FAMILIES.remove(TOY)
        del FAMILIES_BY_NAME[TOY.name]


def _toy_findings(findings):
    return [f for f in findings if f["kind"] == "toy"]


def test_analyze_json_and_table(toy, capsys):
    assert main(["analyze", "--format", "json", "--toy-size", "2048"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["toy_resource_size"] == 2048
    (finding,) = _toy_findings(report["findings"])
    assert finding["subject"] == TOY_VENDOR
    assert finding["data"] == {"resource_size": 2048}

    assert main(["analyze"]) == 0
    out = capsys.readouterr().out
    assert "| toy  | akamai" in out
    assert "1 TOY-vulnerable vendor(s)" in out
    assert "/ 4096B (TOY)," in out


def test_recommend_json_and_table(toy, capsys):
    assert main(["recommend", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["toy_resource_size"] == 4096
    (recommendation,) = _toy_findings(report["recommendations"])
    assert recommendation["chosen"]["label"] == "laziness@cdn"
    assert recommendation["chosen"]["residual_factor"] == 1.0

    assert main(["recommend", "--verify"]) == 0
    out = capsys.readouterr().out
    assert ", and 1 TOY finding(s);" in out


def test_run_all_runs_its_cells_and_writes_its_table(toy, tmp_path):
    report = run_all(quick=True)
    toy_cells = [cell for cell in report.cells if cell.experiment == "toy"]
    assert len(toy_cells) == 13 and all(cell.ok for cell in toy_cells)
    # No fast engine: the grid runner simulated them.
    assert report.fastpath is not None and report.fastpath.ineligible == 3 + 13
    assert report.factors[f"toy:{TOY_VENDOR}:4096"] == TOY_FACTOR
    written = {path.name: path for path in write_report(report, tmp_path)}
    assert "akamai     | 20.0" in written["table_toy.txt"].read_text()
    recommended = json.loads(written["table7_recommendations.json"].read_text())
    assert _toy_findings(recommended["recommendations"])


def test_serve_analyzes_and_recommends_it(toy):
    service = AnalysisService()
    item = {"vendor": TOY_VENDOR, "attack": "toy", "exact": True}
    (analyzed,) = body_json(service.handle(batch_request("/v1/analyze", [item])))[
        "results"
    ]
    assert analyzed["finding"]["kind"] == "toy"
    assert analyzed["exact_factor"] == TOY_FACTOR
    (recommended,) = body_json(service.handle(batch_request("/v1/recommend", [item])))[
        "results"
    ]
    assert recommended["resolved"] is True
    assert recommended["recommendation"]["chosen"]["label"] == "laziness@cdn"


def test_purity_dispatches_its_measure(toy):
    # The grid executor reaches every family's measure through the
    # registry; the determinism analyzer's synthetic edges must follow.
    dispatched = default_config().dispatch_map()["repro.runner.experiments.execute_cell"]
    assert f"{_measure.__module__}._measure" in dispatched
    assert "repro.families.sbr.measure_sbr" in dispatched
