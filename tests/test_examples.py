"""Smoke tests: every example script must run to completion.

Examples are the documentation users actually execute; a broken one is
a broken deliverable.  Each runs in-process via runpy with controlled
argv (and the faster variants where a script offers one).
"""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).parent.parent / "examples"


def _run(script: str, *argv: str, capsys=None):
    old_argv = sys.argv
    sys.argv = [script, *argv]
    try:
        runpy.run_path(str(EXAMPLES / script), run_name="__main__")
    finally:
        sys.argv = old_argv


class TestExamplesRun:
    def test_quickstart(self, capsys):
        _run("quickstart.py")
        output = capsys.readouterr().out
        assert "amplification" in output
        assert "paper" in output

    def test_feasibility_survey(self, capsys):
        _run("feasibility_survey.py")
        output = capsys.readouterr().out
        assert "Table I" in output and "Table III" in output

    def test_mitigation_eval(self, capsys):
        _run("mitigation_eval.py")
        output = capsys.readouterr().out
        assert "Laziness" in output

    def test_sbr_attack_demo_with_vendor(self, capsys):
        _run("sbr_attack_demo.py", "akamai")
        output = capsys.readouterr().out
        assert "Fig 6a curve for akamai" in output
        assert "Cache busting" in output

    def test_obr_cascade_demo_walkthrough(self, capsys):
        _run("obr_cascade_demo.py", "cdn77", "azure")
        output = capsys.readouterr().out
        assert "max n = 64" in output

    def test_attack_economics(self, capsys):
        _run("attack_economics.py")
        output = capsys.readouterr().out
        assert "victim bill" in output or "victim traffic" in output

    def test_bandwidth_flood(self, capsys):
        _run("bandwidth_flood.py")
        output = capsys.readouterr().out
        assert "pins at capacity from m =" in output

    def test_sbr_demo_rejects_unknown_vendor(self):
        with pytest.raises(SystemExit):
            _run("sbr_attack_demo.py", "notacdn")
