"""Tests for the whole-program determinism (purity) analyzer.

Four layers:

* **repo-clean guard** — the live ``src/repro`` tree has zero
  unsuppressed findings and every configured sink/facade still exists
  (a renamed sink silently un-gates its contract);
* **seeded fixture** — the known ``time.time()`` -> journal-write path
  in ``tests/analysis/fixtures/purity_demo/`` is detected with the
  exact source, sink, and call chain, and routing through the declared
  clock facade silences it;
* **baseline** — suppressions match, stale entries surface as
  ``unused-suppression`` findings, malformed files are usage errors,
  and the 3.10 fallback parser agrees with :mod:`tomllib`;
* **output contracts** — SARIF validates against the vendored 2.1.0
  structural subset schema, and the CLI honours the documented
  0/1/2 exit codes.
"""

import json
from pathlib import Path

import pytest

from repro.analysis.callgraph import CallGraph, build_callgraph
from repro.analysis.purity import (
    BaselineEntry,
    FacadeSpec,
    PurityConfig,
    PurityReport,
    SinkSpec,
    _parse_toml_subset,
    analyze_callgraph,
    analyze_tree,
    classify_source_call,
    load_baseline,
    missing_sink_functions,
    render_text,
    to_sarif,
)
from repro.cli import main
from repro.errors import UsageError

FIXTURE_ROOT = Path(__file__).parent / "fixtures" / "purity_demo"

DEMO_SINKS = (
    SinkSpec("purity_demo.journal.Journal.write", "journal", "fixture sink"),
)
DEMO_FACADE = FacadeSpec(
    "purity_demo.clocked.now", "injected clock default (fixture)"
)


def _demo_graph() -> CallGraph:
    return build_callgraph(root=FIXTURE_ROOT, package="purity_demo")


def _demo_config(with_facade: bool = True) -> PurityConfig:
    return PurityConfig(
        sinks=DEMO_SINKS,
        facades=(DEMO_FACADE,) if with_facade else (),
        dispatch=(),
        package="purity_demo",
    )


def _demo_report(with_facade: bool = True, baseline=()) -> PurityReport:
    return analyze_callgraph(
        _demo_graph(),
        config=_demo_config(with_facade),
        baseline=baseline,
        source_prefix="",
    )


class TestSourceClassifier:
    def test_wall_clock(self):
        assert classify_source_call("time.time") == ("wall-clock", "time.time")
        assert classify_source_call("datetime.datetime.now") is not None

    def test_durations_are_not_sources(self):
        assert classify_source_call("time.perf_counter") is None
        assert classify_source_call("time.monotonic") is None
        assert classify_source_call("time.sleep") is None

    def test_seeded_random_is_a_facade(self):
        assert classify_source_call("random.Random") is None
        assert classify_source_call("random.Random.randrange") is None

    def test_global_random_is_a_source(self):
        assert classify_source_call("random.randrange") == (
            "global-random",
            "random.randrange",
        )

    def test_system_random_is_entropy(self):
        kind, _ = classify_source_call("random.SystemRandom.random")
        assert kind == "entropy"
        assert classify_source_call("os.urandom")[0] == "entropy"
        assert classify_source_call("uuid.uuid4")[0] == "entropy"

    def test_object_id_and_env(self):
        assert classify_source_call("builtins.id")[0] == "object-id"
        assert classify_source_call("os.getenv")[0] == "env-read"
        assert classify_source_call("os.environ.get")[0] == "env-read"


class TestRepoIsClean:
    """The acceptance gate: zero unsuppressed findings on the live tree."""

    def test_no_unsuppressed_findings(self):
        report = analyze_tree()
        assert report.findings == (), render_text(report)
        assert report.clean

    def test_analysis_covers_the_whole_package(self):
        report = analyze_tree()
        assert report.module_count > 80
        assert report.function_count > 700

    def test_configured_sinks_and_facades_exist(self):
        # A renamed sink would silently un-gate its contract.
        assert missing_sink_functions(build_callgraph()) == []


class TestFixtureDetection:
    def test_exact_source_sink_and_chain(self):
        report = _demo_report()
        assert len(report.findings) == 1
        finding = report.findings[0]
        assert finding.rule == "purity-path"
        assert finding.source_kind == "wall-clock"
        assert finding.source_token == "time.time"
        assert finding.source_function == "purity_demo.metrics.stamp"
        assert finding.sink == "purity_demo.journal.Journal.write"
        assert finding.confluence == "purity_demo.pipeline.flush"
        assert [s.qualname for s in finding.source_chain] == [
            "purity_demo.pipeline.flush",
            "purity_demo.metrics.stamp",
        ]
        assert [s.qualname for s in finding.sink_chain] == [
            "purity_demo.pipeline.flush",
            "purity_demo.journal.Journal.write",
        ]
        assert finding.rel_path == "metrics.py"
        assert finding.line > 0

    def test_facade_blocks_propagation(self):
        # Without the declared facade, the clocked.now wrapper becomes a
        # second tainted path (via flush_via_facade); with it, only the
        # raw read is reported.
        undeclared = _demo_report(with_facade=False)
        confluences = {f.confluence for f in undeclared.findings}
        assert "purity_demo.pipeline.flush_via_facade" in confluences
        declared = _demo_report(with_facade=True)
        assert {f.confluence for f in declared.findings} == {
            "purity_demo.pipeline.flush"
        }

    def test_render_text_names_the_chain(self):
        text = render_text(_demo_report())
        assert "purity-path" in text
        assert "source chain:" in text
        assert "purity_demo.pipeline.flush" in text
        assert "1 finding(s)" in text

    def test_report_dict_round_trips_through_json(self):
        payload = json.loads(_demo_report().to_json())
        assert payload["clean"] is False
        assert payload["findings"][0]["sink"] == (
            "purity_demo.journal.Journal.write"
        )
        assert payload["findings"][0]["source_chain"][0]["function"] == (
            "purity_demo.pipeline.flush"
        )


class TestBaseline:
    MATCHING = BaselineEntry(
        rule="purity-path",
        source="time.time",
        sink="purity_demo.journal.*",
        justification="fixture: reviewed",
    )
    STALE = BaselineEntry(
        rule="purity-path",
        source="uuid.*",
        sink="*",
        justification="fixture: never matches",
    )

    def test_matching_entry_suppresses(self):
        report = _demo_report(baseline=[self.MATCHING])
        assert report.findings == ()
        assert len(report.suppressed) == 1
        assert report.unused_suppressions == ()
        assert report.clean

    def test_stale_entry_is_a_finding(self):
        report = _demo_report(baseline=[self.MATCHING, self.STALE])
        assert report.findings == ()
        assert report.unused_suppressions == (self.STALE,)
        assert not report.clean

    def test_function_pattern_must_match_too(self):
        scoped = BaselineEntry(
            rule="purity-path",
            source="time.time",
            sink="*",
            function="purity_demo.other.*",
            justification="fixture: wrong function",
        )
        report = _demo_report(baseline=[scoped])
        assert len(report.findings) == 1
        assert report.unused_suppressions == (scoped,)

    def test_load_baseline(self, tmp_path):
        path = tmp_path / "purity-baseline.toml"
        path.write_text(
            "# reviewed suppressions\n"
            "[[suppression]]\n"
            'rule = "purity-path"\n'
            'source = "time.time"\n'
            'sink = "purity_demo.journal.*"\n'
            'justification = "fixture: reviewed"\n',
            encoding="utf-8",
        )
        entries = load_baseline(path)
        assert entries == [self.MATCHING]

    def test_missing_file_is_a_usage_error(self, tmp_path):
        with pytest.raises(UsageError):
            load_baseline(tmp_path / "absent.toml")

    def test_missing_justification_rejected(self, tmp_path):
        path = tmp_path / "bad.toml"
        path.write_text(
            "[[suppression]]\n"
            'rule = "purity-path"\n'
            'source = "x"\n'
            'sink = "y"\n',
            encoding="utf-8",
        )
        with pytest.raises(UsageError, match="missing justification"):
            load_baseline(path)

    def test_fallback_parser_agrees_with_tomllib(self):
        tomllib = pytest.importorskip("tomllib")
        text = (
            "# comment\n"
            "\n"
            "[[suppression]]\n"
            'rule = "purity-path"\n'
            'source = "time.*"\n'
            'sink = "pkg.mod.fn"\n'
            'function = "pkg.*"\n'
            'justification = "because"\n'
            "[[suppression]]\n"
            'rule = "purity-path"\n'
            'source = "builtins.id"\n'
            'sink = "*"\n'
            'justification = "also"\n'
        )
        assert _parse_toml_subset(text, "x.toml") == (
            tomllib.loads(text)["suppression"]
        )

    def test_fallback_parser_rejects_unknown_syntax(self):
        with pytest.raises(UsageError, match="unsupported baseline syntax"):
            _parse_toml_subset("[[suppression]]\nrule = [1, 2]\n", "x.toml")

    def test_shipped_baseline_parses_and_is_empty(self):
        shipped = Path(__file__).parents[2] / "purity-baseline.toml"
        assert load_baseline(shipped) == []


class TestSarifOutput:
    def test_structural_shape(self):
        log = to_sarif(_demo_report())
        assert log["version"] == "2.1.0"
        run = log["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-purity"
        rule_ids = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
        assert rule_ids == {"purity-path", "unused-suppression"}
        result = run["results"][0]
        assert result["ruleId"] == "purity-path"
        assert result["level"] == "error"
        flow = result["codeFlows"][0]["threadFlows"][0]["locations"]
        names = [step["location"]["message"]["text"] for step in flow]
        # Source effect first, sink last, confluence in the middle.
        assert names[0] == "purity_demo.metrics.stamp"
        assert names[-1] == "purity_demo.journal.Journal.write"
        assert "purity_demo.pipeline.flush" in names

    def test_unused_suppression_becomes_warning(self):
        report = _demo_report(
            baseline=[TestBaseline.MATCHING, TestBaseline.STALE]
        )
        results = to_sarif(report)["runs"][0]["results"]
        assert [r["ruleId"] for r in results] == ["unused-suppression"]
        assert results[0]["level"] == "warning"

    def test_validates_against_schema_subset(self):
        jsonschema = pytest.importorskip(
            "jsonschema", reason="jsonschema not installed"
        )
        schema = json.loads(
            (
                Path(__file__).parent / "fixtures" / "sarif_schema_subset.json"
            ).read_text(encoding="utf-8")
        )
        for report in (
            _demo_report(),
            _demo_report(baseline=[TestBaseline.STALE]),
            analyze_tree(),
        ):
            jsonschema.validate(to_sarif(report), schema)


class TestCliContract:
    """Exit codes: 0 clean / 1 findings / 2 usage error."""

    def test_purity_clean_tree_exits_zero(self, capsys):
        assert main(["purity"]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_purity_json_format(self, capsys):
        assert main(["purity", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["tool"] == "repro-purity"
        assert payload["clean"] is True

    def test_purity_sarif_to_file(self, tmp_path, capsys):
        target = tmp_path / "purity.sarif"
        assert main(["purity", "--format", "sarif", "--output", str(target)]) == 0
        assert "wrote sarif report" in capsys.readouterr().out
        assert json.loads(target.read_text(encoding="utf-8"))["version"] == "2.1.0"

    def test_missing_baseline_is_exit_two(self, tmp_path, capsys):
        absent = tmp_path / "absent.toml"
        assert main(["purity", "--baseline", str(absent)]) == 2
        assert "usage error:" in capsys.readouterr().err

    def test_unused_baseline_entry_is_exit_one(self, tmp_path, capsys):
        stale = tmp_path / "stale.toml"
        stale.write_text(
            "[[suppression]]\n"
            'rule = "purity-path"\n'
            'source = "uuid.*"\n'
            'sink = "*"\n'
            'justification = "stale fixture entry"\n',
            encoding="utf-8",
        )
        assert main(["purity", "--baseline", str(stale)]) == 1
        assert "unused-suppression" in capsys.readouterr().out

    def test_lint_json_format(self, capsys):
        assert main(["lint", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 0
        assert payload["findings"] == []

    def test_lint_findings_exit_one(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("def f(x):\n    return x\n", encoding="utf-8")
        assert main(["lint", str(dirty)]) == 1
        assert "finding(s)" in capsys.readouterr().err
