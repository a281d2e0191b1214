"""The BENCH_runall.json schema: typed round-trip, strict rejection.

The CI benchmark gate (``scripts/check_bench.py``) compares four of these
files; every comparison it makes goes through :func:`load_bench`, so the
loader must reject anything it does not fully understand — an unknown
schema version, a missing field, a mistyped count — rather than let the
gate silently compare garbage.
"""

import json

import pytest

from repro.errors import ReproError
from repro.reporting.bench import (
    BENCH_FILENAME,
    BENCH_SCHEMA_VERSION,
    BenchFastPath,
    BenchReport,
    BenchSchemaError,
    bench_from_dict,
    bench_from_runall,
    load_bench,
)


def _sample_report(mode="fast"):
    fastpath = None
    if mode == "fast":
        fastpath = BenchFastPath(
            answered=41,
            refused=0,
            ineligible=3,
            hit_rate=41 / 44,
        )
    return BenchReport(
        schema_version=BENCH_SCHEMA_VERSION,
        label="run-all-quick",
        mode=mode,
        wall_s=0.55,
        cell_count=44,
        cells_per_s=44 / 0.55,
        workers=1,
        phases={"fastpath": 0.03, "grid": 0.17, "static": 0.35, "measure": 0.08},
        fastpath=fastpath,
    )


class TestRoundTrip:
    def test_json_round_trip_is_lossless(self, tmp_path):
        report = _sample_report()
        path = report.write(tmp_path / "bench.json")
        assert load_bench(path) == report

    def test_write_into_directory_uses_canonical_name(self, tmp_path):
        path = _sample_report().write(tmp_path)
        assert path == tmp_path / BENCH_FILENAME
        assert load_bench(tmp_path) == _sample_report()

    def test_exact_mode_round_trips_without_fastpath(self, tmp_path):
        report = _sample_report(mode="exact")
        path = report.write(tmp_path / "bench.json")
        loaded = load_bench(path)
        assert loaded == report
        assert loaded.fastpath is None
        assert loaded.hit_rate == 0.0

    def test_measure_phase_property(self):
        assert _sample_report().measure_s == pytest.approx(0.08)
        empty = _sample_report(mode="exact")
        assert BenchReport(
            schema_version=BENCH_SCHEMA_VERSION,
            label=empty.label,
            mode=empty.mode,
            wall_s=1.0,
            cell_count=1,
            cells_per_s=1.0,
            workers=1,
        ).measure_s == 0.0

        # Fast answers are merged into the run's outcomes (and its
        # per-experiment timings) with their own seconds, which the
        # fastpath phase already holds; measure adds only the
        # measurement cells the grid runner simulated.
        from repro.runner.executor import CellTiming
        from repro.runner.runall import RunAllReport

        report = RunAllReport(
            tables=[],
            factors={},
            duration_s=0.7,
            cell_seconds=0.66,
            cell_count=6,
            timing_by_experiment={
                "sbr": CellTiming(total_s=0.02, count=2),
                "obr": CellTiming(total_s=0.13, count=2),
                "flood": CellTiming(total_s=0.5, count=2),
            },
            simulated_seconds_by_experiment={"obr": 0.11, "flood": 0.5},
            phase_seconds={"fastpath": 0.04, "grid": 0.61, "static": 0.1},
        )
        bench = bench_from_runall(report, "run-all-quick")
        assert bench.measure_s == pytest.approx(0.04 + 0.11)
        assert bench.wall_s == pytest.approx(0.75)


class TestRejection:
    def _payload(self, **overrides):
        payload = json.loads(_sample_report().to_json())
        payload.update(overrides)
        return payload

    def test_schema_error_is_a_repro_error(self):
        assert issubclass(BenchSchemaError, ReproError)

    def test_unknown_version_rejected(self):
        with pytest.raises(BenchSchemaError, match="unknown benchmark schema"):
            bench_from_dict(self._payload(schema_version=BENCH_SCHEMA_VERSION + 1))

    def test_version_one_files_rejected_after_ccfc_bump(self):
        # The grid gained CCFC cells in schema version 2: cell counts
        # and phase totals from version-1 builds are not comparable, so
        # the strict loader refuses them outright.
        with pytest.raises(BenchSchemaError, match="unknown benchmark schema"):
            bench_from_dict(self._payload(schema_version=1))

    def test_version_two_files_rejected_after_validate_drop(self):
        # Version 3 dropped the validate phase and the validated count:
        # a version-2 file's measure phase included the re-simulation.
        assert BENCH_SCHEMA_VERSION > 2
        payload = self._payload(schema_version=2)
        payload["fastpath"]["validated"] = 4
        with pytest.raises(BenchSchemaError, match="unknown benchmark schema"):
            bench_from_dict(payload)

    def test_version_three_files_rejected_after_measure_fix(self):
        # Version 4 stopped counting fast answers twice in measure: a
        # version-3 file's measure phase is about twice the fastpath.
        assert BENCH_SCHEMA_VERSION > 3
        with pytest.raises(BenchSchemaError, match="unknown benchmark schema"):
            bench_from_dict(self._payload(schema_version=3))

    def test_version_four_files_rejected_after_calibration_drop(self):
        # Version 5 dropped the OBR calibration count: nothing calibrates.
        assert BENCH_SCHEMA_VERSION == 5
        payload = self._payload(schema_version=4)
        payload["fastpath"]["calibration_runs"] = 10
        with pytest.raises(BenchSchemaError, match="unknown benchmark schema"):
            bench_from_dict(payload)

    def test_missing_field_rejected(self):
        payload = self._payload()
        del payload["wall_s"]
        with pytest.raises(BenchSchemaError, match="missing 'wall_s'"):
            bench_from_dict(payload)

    def test_wrong_type_rejected(self):
        with pytest.raises(BenchSchemaError, match="'cell_count' must be int"):
            bench_from_dict(self._payload(cell_count="44"))

    def test_bool_is_not_an_int(self):
        # bool subclasses int; a stray true in a count field must fail.
        with pytest.raises(BenchSchemaError, match="'workers' must be int"):
            bench_from_dict(self._payload(workers=True))

    def test_int_accepted_where_float_expected(self):
        report = bench_from_dict(self._payload(wall_s=2))
        assert report.wall_s == 2.0
        assert isinstance(report.wall_s, float)

    def test_non_numeric_phase_rejected(self):
        payload = self._payload()
        payload["phases"]["grid"] = "fast"
        with pytest.raises(BenchSchemaError, match="'grid' must be a number"):
            bench_from_dict(payload)

    def test_malformed_fastpath_rejected(self):
        payload = self._payload()
        del payload["fastpath"]["hit_rate"]
        with pytest.raises(BenchSchemaError, match="missing 'hit_rate'"):
            bench_from_dict(payload)

    def test_non_object_payload_rejected(self):
        with pytest.raises(BenchSchemaError, match="must be an object"):
            bench_from_dict(["not", "an", "object"])

    def test_non_json_file_rejected(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text("not json at all", encoding="utf-8")
        with pytest.raises(BenchSchemaError, match="is not JSON"):
            load_bench(path)


class TestFromRunAll:
    @pytest.fixture(scope="class")
    def quick_report(self):
        from repro.runner.memo import clear_all_memos
        from repro.runner.runall import run_all

        clear_all_memos()
        return run_all(quick=True, vendors=["gcore"])

    def test_observation_from_live_run(self, quick_report, tmp_path):
        bench = bench_from_runall(quick_report, "run-all-quick", wall_s=1.25)
        assert bench.mode == "fast"
        assert bench.wall_s == 1.25
        assert bench.cell_count == quick_report.cell_count
        assert bench.fastpath is not None
        assert bench.fastpath.answered == quick_report.fastpath.answered
        # The derived measure phase includes planning.
        assert bench.measure_s >= quick_report.phase_seconds["fastpath"]
        assert load_bench(bench.write(tmp_path)) == bench

    def test_wall_defaults_to_phase_sum(self, quick_report):
        bench = bench_from_runall(quick_report, "run-all-quick")
        assert bench.wall_s == pytest.approx(
            sum(quick_report.phase_seconds.values())
        )


class TestCliWritesBench:
    def test_run_all_quick_produces_valid_file(self, tmp_path, monkeypatch):
        from repro.cli import main
        from repro.runner.memo import clear_all_memos

        clear_all_memos()
        monkeypatch.chdir(tmp_path)
        bench_path = tmp_path / "bench.json"
        out_dir = tmp_path / "artifacts"
        assert (
            main(
                [
                    "run-all",
                    "--quick",
                    "--no-progress",
                    "--bench",
                    str(bench_path),
                    "--output-dir",
                    str(out_dir),
                ]
            )
            == 0
        )
        bench = load_bench(bench_path)
        assert bench.label == "run-all-quick"
        assert bench.mode == "fast"
        assert bench.schema_version == BENCH_SCHEMA_VERSION
        assert bench.fastpath is not None and bench.fastpath.answered > 0
        assert bench.wall_s > 0
        # --output-dir always receives the canonical observation too.
        assert load_bench(out_dir).label == bench.label

    def test_exact_flag_produces_exact_observation(self, tmp_path):
        from repro.cli import main
        from repro.runner.memo import clear_all_memos

        clear_all_memos()
        bench_path = tmp_path / "bench_exact.json"
        assert (
            main(
                [
                    "run-all",
                    "--quick",
                    "--no-progress",
                    "--exact",
                    "--bench",
                    str(bench_path),
                ]
            )
            == 0
        )
        bench = load_bench(bench_path)
        assert bench.label == "run-all-quick-exact"
        assert bench.mode == "exact"
        assert bench.fastpath is None
