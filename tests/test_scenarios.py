"""Tests for declarative scenarios and the CLI scenario command."""

import json

import pytest

from repro.cli import main
from repro.analysis.classify import MAX_FLOOD_M, MAX_OVERLAPS
from repro.errors import ConfigurationError
from repro.scenarios import (
    load_scenario,
    run_scenario,
    validate_scenario,
)


#: One malformed value per experiment key that takes an integer.
BAD_VALUES = [
    {"type": "sbr", "vendor": "gcore", "size_mb": "abc"},
    {"type": "sbr", "vendor": "gcore", "size_mb": -3},
    {"type": "sbr", "vendor": "gcore", "size_mb": 0},
    {"type": "sbr", "vendor": "gcore", "size_mb": 2.5},
    {"type": "sbr", "vendor": "gcore", "size_mb": True},
    {"type": "sbr", "vendor": "gcore", "rounds": 0},
    {"type": "sbr", "vendor": "gcore", "rounds": "3"},
    {"type": "obr", "fcdn": "cloudflare", "bcdn": "akamai", "overlaps": "64"},
    {"type": "obr", "fcdn": "cloudflare", "bcdn": "akamai", "overlaps": 6.5},
    {"type": "obr", "fcdn": "cloudflare", "bcdn": "akamai", "overlaps": -1},
    {"type": "obr", "fcdn": "cdn77", "bcdn": "akamai", "overlaps": MAX_OVERLAPS + 1},
    {"type": "obr", "fcdn": "cdn77", "bcdn": "akamai", "overlaps": 100000000},
    {"type": "flood", "m": 1.5},
    {"type": "flood", "m": -1},
    {"type": "flood", "m": MAX_FLOOD_M + 1},
    {"type": "flood", "m": "12"},
    {"type": "flood", "m": None},
]


def _spec(**overrides):
    spec = {
        "name": "test-run",
        "experiments": [
            {"type": "sbr", "vendor": "gcore", "size_mb": 1},
        ],
    }
    spec.update(overrides)
    return spec


class TestValidation:
    def test_valid_spec_passes(self):
        validate_scenario(_spec())

    @pytest.mark.parametrize(
        "broken",
        [
            "not-a-dict",
            {"experiments": [{"type": "sbr", "vendor": "gcore"}]},  # no name
            {"name": "x"},  # no experiments
            {"name": "x", "experiments": []},
            {"name": "x", "experiments": ["nope"]},
            {"name": "x", "experiments": [{"type": "teapot"}]},
            {"name": "x", "experiments": [{"type": "sbr", "vendor": "notacdn"}]},
            {"name": "x", "experiments": [{"type": "obr", "fcdn": "cdn77"}]},
        ],
    )
    def test_broken_specs_rejected(self, broken):
        with pytest.raises(ConfigurationError):
            validate_scenario(broken)

    @pytest.mark.parametrize("experiment", BAD_VALUES)
    def test_bad_values_rejected(self, experiment):
        with pytest.raises(ConfigurationError, match="must be an integer"):
            validate_scenario({"name": "x", "experiments": [experiment]})

    @pytest.mark.parametrize(
        "experiment",
        [
            {"type": "flood", "m": 0},
            {"type": "flood", "m": MAX_FLOOD_M},
            {"type": "obr", "fcdn": "cloudflare", "bcdn": "akamai", "overlaps": 0},
            {"type": "obr", "fcdn": "cdn77", "bcdn": "akamai", "overlaps": MAX_OVERLAPS},
            {"type": "sbr", "vendor": "gcore", "size_mb": 1, "rounds": 1},
        ],
    )
    def test_boundary_values_accepted(self, experiment):
        validate_scenario({"name": "x", "experiments": [experiment]})


class TestExecution:
    def test_sbr_experiment(self):
        outcome = run_scenario(_spec())
        assert outcome.name == "test-run"
        assert len(outcome.outcomes) == 1
        result = outcome.outcomes[0]
        assert result.type == "sbr"
        assert result.metrics["amplification"] > 1500

    def test_obr_experiment(self):
        outcome = run_scenario(
            {
                "name": "obr-run",
                "experiments": [
                    {"type": "obr", "fcdn": "cloudflare", "bcdn": "akamai",
                     "overlaps": 64}
                ],
            }
        )
        metrics = outcome.outcomes[0].metrics
        assert metrics["amplification"] > 40
        assert outcome.outcomes[0].parameters["overlaps"] == 64

    def test_flood_experiment(self):
        outcome = run_scenario(
            {"name": "flood", "experiments": [{"type": "flood", "m": 13}]}
        )
        assert outcome.outcomes[0].metrics["saturated"] is True

    def test_mixed_batch_and_serialization(self):
        outcome = run_scenario(
            {
                "name": "batch",
                "experiments": [
                    {"type": "sbr", "vendor": "gcore", "size_mb": 1},
                    {"type": "flood", "m": 2},
                ],
            }
        )
        as_dict = outcome.to_dict()
        assert as_dict["name"] == "batch"
        assert len(as_dict["experiments"]) == 2
        json.dumps(as_dict)  # round-trippable


class TestFileLoading:
    def test_load_and_run_from_disk(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(_spec()))
        spec = load_scenario(path)
        assert run_scenario(spec).outcomes

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_scenario(tmp_path / "nope.json")

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError):
            load_scenario(path)


class TestCliIntegration:
    def test_scenario_command(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(_spec()))
        assert main(["scenario", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiments"][0]["metrics"]["amplification"] > 1500

    def test_scenario_command_bad_file(self, tmp_path, capsys):
        assert main(["scenario", str(tmp_path / "missing.json")]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("experiment", BAD_VALUES)
    def test_scenario_command_bad_value(self, tmp_path, capsys, experiment):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"name": "x", "experiments": [experiment]}))
        assert main(["scenario", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: experiment #0: ")
        assert "Traceback" not in err
