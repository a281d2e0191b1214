"""Tests for the persistent run ledger: record determinism, the strict
loader, ledger append/load/resolve, and cross-run diff gating."""

import json

import pytest

from repro.obs.runlog import (
    RUNLOG_SCHEMA_VERSION,
    CellRecord,
    RunLedger,
    RunLogError,
    RunRecord,
    config_digest,
    diff_runs,
    record_from_analysis,
    record_from_dict,
    record_from_json,
    record_from_runall,
)


def _record(
    run_id="a" * 16,
    label="run-all-quick",
    cells=(),
    factors=None,
    started_at=1000.0,
):
    config = {"quick": True}
    return RunRecord(
        schema_version=RUNLOG_SCHEMA_VERSION,
        run_id=run_id,
        command="run-all",
        label=label,
        started_at=started_at,
        wall_s=2.5,
        workers=2,
        cell_count=len(cells),
        config=config,
        config_digest=config_digest(config),
        phase_seconds={"grid": 2.0},
        cells=tuple(cells),
        factors=dict(factors or {}),
        fastpath={"answered": 3, "refused": 0, "ineligible": 1, "hit_rate": 0.75},
        metrics={},
        artifacts={"table4.txt": "0" * 64},
    )


def _cell(label, seconds, experiment="sbr", ok=True):
    return CellRecord(label=label, experiment=experiment, seconds=seconds, ok=ok)


class TestRecordDeterminism:
    def test_fixed_clock_yields_byte_identical_records(self):
        from repro.analysis.report import analyze_vendor_matrix

        report = analyze_vendor_matrix()
        clock = lambda: 1234.5  # noqa: E731
        first = record_from_analysis(report, {"size_mb": 10}, wall_s=1.0, clock=clock)
        second = record_from_analysis(report, {"size_mb": 10}, wall_s=1.0, clock=clock)
        assert first.to_json() == second.to_json()
        assert first.run_id == second.run_id

    def test_round_trip_through_strict_loader_is_lossless(self):
        record = _record(
            cells=[_cell("sbr[akamai, 1MB]", 0.25)],
            factors={"sbr:akamai:1048576": 724.0},
        )
        loaded = record_from_json(record.to_json())
        assert loaded == record
        assert loaded.to_json() == record.to_json()

    def test_serialization_is_canonical(self):
        line = _record().to_json()
        payload = json.loads(line)
        assert line == json.dumps(payload, sort_keys=True, separators=(",", ":"))
        assert "\n" not in line


class TestStrictLoader:
    def test_missing_field_raises(self):
        payload = _record().to_dict()
        del payload["wall_s"]
        with pytest.raises(RunLogError):
            record_from_dict(payload)

    def test_unknown_schema_version_raises(self):
        payload = _record().to_dict()
        payload["schema_version"] = RUNLOG_SCHEMA_VERSION + 1
        with pytest.raises(RunLogError):
            record_from_dict(payload)

    def test_bool_in_numeric_field_raises(self):
        payload = _record().to_dict()
        payload["wall_s"] = True
        with pytest.raises(RunLogError):
            record_from_dict(payload)

    def test_non_numeric_factor_raises(self):
        payload = _record().to_dict()
        payload["factors"] = {"sbr:akamai:1048576": "big"}
        with pytest.raises(RunLogError):
            record_from_dict(payload)

    def test_cells_must_be_an_array_of_objects(self):
        payload = _record().to_dict()
        payload["cells"] = "oops"
        with pytest.raises(RunLogError):
            record_from_dict(payload)
        payload["cells"] = ["oops"]
        with pytest.raises(RunLogError):
            record_from_dict(payload)

    @pytest.mark.parametrize(
        "fastpath",
        [
            {"answered": 3, "hit_rate": 0.75},  # counts missing
            {"answered": 3, "refused": 0, "ineligible": 1},  # hit rate missing
            {"answered": -1, "refused": 0, "ineligible": 1, "hit_rate": 0.75},
            {"answered": 3, "refused": 0.5, "ineligible": 1, "hit_rate": 0.75},
            {"answered": 3, "refused": 0, "ineligible": 1, "hit_rate": "75%"},
            {"answered": 3, "refused": 0, "ineligible": 1, "hit_rate": 1.5},
            {"answered": 3, "refused": 0, "ineligible": 1, "hit_rate": 0.75,
             "calibration_runs": True},
            [3, 0, 1],
        ],
    )
    def test_malformed_fastpath_raises(self, fastpath):
        payload = _record().to_dict()
        payload["fastpath"] = fastpath
        with pytest.raises(RunLogError):
            record_from_dict(payload)

    def test_legacy_calibration_count_still_loads(self):
        # Records written while OBR cells were calibrated carry it.
        payload = _record().to_dict()
        payload["fastpath"]["calibration_runs"] = 10
        loaded = record_from_dict(payload)
        assert loaded.fastpath["calibration_runs"] == 10
        assert record_from_json(loaded.to_json()) == loaded

    def test_obs_runs_reports_a_partial_fastpath_as_an_error(self, tmp_path, capsys):
        from repro.cli import main

        payload = _record().to_dict()
        payload["fastpath"] = {"answered": 3}
        path = tmp_path / "runlog.jsonl"
        path.write_text(
            json.dumps(payload) + "\n" + _record(run_id="b" * 16).to_json() + "\n",
            encoding="utf-8",
        )
        assert main(["obs", "runs", "--ledger", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_non_json_line_raises(self):
        with pytest.raises(RunLogError):
            record_from_json("{truncated")


class TestRunLedger:
    def test_append_then_load_round_trips(self, tmp_path):
        ledger = RunLedger(tmp_path / "runlog.jsonl")
        first = _record(run_id="f" * 16)
        second = _record(run_id="0" * 16)
        ledger.append(first)
        ledger.append(second)
        assert ledger.load() == [first, second]
        assert len(ledger) == 2

    def test_missing_file_loads_empty(self, tmp_path):
        assert RunLedger(tmp_path / "absent.jsonl").load() == []

    def test_torn_final_line_is_skipped(self, tmp_path):
        path = tmp_path / "runlog.jsonl"
        ledger = RunLedger(path)
        ledger.append(_record())
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"schema_version": 1, "run_id"')  # killed writer
        assert len(ledger.load()) == 1

    def test_malformed_middle_line_raises(self, tmp_path):
        path = tmp_path / "runlog.jsonl"
        ledger = RunLedger(path)
        ledger.append(_record())
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("corrupt\n")
        ledger.append(_record(run_id="b" * 16))
        with pytest.raises(RunLogError):
            ledger.load()

    def test_resolve_by_index_and_prefix(self, tmp_path):
        ledger = RunLedger(tmp_path / "runlog.jsonl")
        first = _record(run_id="aaaa000000000000")
        second = _record(run_id="bbbb000000000000")
        ledger.append(first)
        ledger.append(second)
        assert ledger.resolve("0") == first
        assert ledger.resolve("-1") == second
        assert ledger.resolve("bbbb") == second

    def test_resolve_errors(self, tmp_path):
        ledger = RunLedger(tmp_path / "runlog.jsonl")
        with pytest.raises(RunLogError):
            ledger.resolve("0")  # empty ledger
        ledger.append(_record(run_id="aaaa000000000000"))
        ledger.append(_record(run_id="aabb000000000000"))
        with pytest.raises(RunLogError):
            ledger.resolve("5")  # out of range
        with pytest.raises(RunLogError):
            ledger.resolve("aa")  # ambiguous prefix
        with pytest.raises(RunLogError):
            ledger.resolve("zz")  # no match


class TestDiffRuns:
    def test_identical_runs_pass_the_gate(self):
        record = _record(
            cells=[_cell("a", 1.0), _cell("b", 0.2)],
            factors={"sbr:akamai:1048576": 724.0},
        )
        diff = diff_runs(record, record)
        assert diff.ok
        assert diff.gate_failures() == []
        assert diff.timing_regressions() == ()
        assert diff.factor_regressions() == ()

    def test_synthetically_slowed_cell_fails_the_gate(self):
        before = _record(cells=[_cell("a", 1.0), _cell("b", 0.2)])
        after = _record(cells=[_cell("a", 2.0), _cell("b", 0.2)])
        diff = diff_runs(before, after, threshold=0.5, min_seconds=0.1)
        assert not diff.ok
        (regression,) = diff.timing_regressions()
        assert regression.label == "a"
        assert regression.ratio == 2.0
        assert any("slowed" in failure for failure in diff.gate_failures())

    def test_fast_cells_below_min_seconds_never_gate(self):
        before = _record(cells=[_cell("a", 0.001)])
        after = _record(cells=[_cell("a", 0.05)])  # 50x, but trivial
        diff = diff_runs(before, after, threshold=0.5, min_seconds=0.1)
        assert diff.ok

    def test_factor_drift_fails_in_either_direction(self):
        before = _record(factors={"sbr:akamai:1048576": 724.0})
        lower = _record(factors={"sbr:akamai:1048576": 700.0})
        diff = diff_runs(before, lower)
        assert not diff.ok
        (drift,) = diff.factor_regressions()
        assert drift.key == "sbr:akamai:1048576"
        assert drift.relative < 0

    def test_added_and_removed_cells_reported_not_gated(self):
        before = _record(cells=[_cell("a", 1.0)])
        after = _record(cells=[_cell("b", 1.0)])
        diff = diff_runs(before, after)
        assert diff.added_cells == ("b",)
        assert diff.removed_cells == ("a",)
        assert diff.ok

    def test_negative_thresholds_rejected(self):
        record = _record()
        with pytest.raises(RunLogError):
            diff_runs(record, record, threshold=-1.0)
        with pytest.raises(RunLogError):
            diff_runs(record, record, min_seconds=-1.0)


class TestRunallRecord:
    def test_quick_runall_record_round_trips(self):
        from repro.runner.runall import run_all

        report = run_all(workers=1, quick=True)
        record = record_from_runall(
            report, "run-all-quick", {"quick": True}, wall_s=1.0,
            clock=lambda: 42.0,
        )
        assert record.command == "run-all"
        assert record.cell_count == report.cell_count
        assert record.fastpath is not None
        assert record.fastpath["answered"] == report.fastpath.answered
        assert any(key.startswith("sbr:") for key in record.factors)
        assert any(key.startswith("obr:") for key in record.factors)
        assert record.phase_seconds.keys() == report.phase_seconds.keys()
        loaded = record_from_json(record.to_json())
        assert loaded == record
