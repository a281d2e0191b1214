"""The attack-family registry: order, lookup, and a light import."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

from repro.analysis.families import FAMILIES, FAMILIES_BY_NAME
from repro.families.base import CASCADE, VENDOR, AttackFamily
from repro.runner.fastpath import FastPathPlanner

SRC = Path(__file__).resolve().parents[2] / "src"


def test_registry_order_and_shapes():
    # The order of the reports' size keys, the CLI's size flags and
    # summaries, and run-all's tables.
    assert [family.name for family in FAMILIES] == ["sbr", "obr", "ccfc"]
    assert [family.shape for family in FAMILIES] == [VENDOR, CASCADE, VENDOR]
    assert list(FAMILIES_BY_NAME) == list(FastPathPlanner().engines)
    # One wire simulation per family: its clean run is the exact factor.
    assert "exact" not in AttackFamily._fields


def test_subject_parsing_rejects_non_strings():
    vendors = {"akamai", "cdn77"}
    assert VENDOR.parse({"vendor": "akamai"}, vendors) == ("akamai",)
    assert CASCADE.parse({"fcdn": "cdn77", "bcdn": "akamai"}, vendors) == (
        "cdn77",
        "akamai",
    )
    for raw in ({"vendor": ["akamai"]}, {"vendor": {"a": 1}}, {"vendor": 3}):
        assert VENDOR.parse(raw, vendors).startswith("unknown vendor ")
    assert CASCADE.parse({"fcdn": {"a": 1}, "bcdn": "akamai"}, vendors) == (
        "unknown cascade {'a': 1} -> 'akamai'"
    )
    assert CASCADE.parse({"fcdn": "cdn77", "bcdn": "cdn77"}, vendors) == (
        "fcdn and bcdn must differ"
    )


def test_report_import_pulls_in_neither_runner_nor_service():
    code = (
        "import sys, repro.analysis.report; "
        "print(sorted(m for m in sys.modules "
        "if m.startswith(('repro.runner', 'repro.serve'))))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.strip() == "[]"
