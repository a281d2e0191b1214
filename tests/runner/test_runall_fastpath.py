"""run-all through the fast path: golden artifacts, --exact, resume.

``tests/golden/runall_quick/`` was generated by the sim-only
``run_all(quick=True)`` reference path and committed (regenerated when
the grid gained CCFC cells).  Everything here pins the artifact *bytes*
against that snapshot:

* the default (fast-path) run must reproduce it exactly,
* ``exact=True`` must reproduce it exactly (the reference path did not
  drift while gaining the fast path),
* a killed-and-resumed checkpointed run must reproduce it exactly, even
  though the journal only ever saw the simulated residual cells.
"""

from pathlib import Path

import pytest

from repro.obs.metrics import FASTPATH_CELLS
from repro.runner.memo import clear_all_memos
from repro.runner.runall import run_all, write_report

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden" / "runall_quick"


def _golden_bytes():
    files = {path.name: path.read_bytes() for path in GOLDEN_DIR.iterdir()}
    assert files, f"no golden artifacts in {GOLDEN_DIR}"
    return files


def _artifact_bytes(report, directory):
    return {
        path.name: path.read_bytes() for path in write_report(report, directory)
    }


@pytest.fixture(scope="module")
def fast_report():
    clear_all_memos()
    return run_all(quick=True)


@pytest.fixture(scope="module")
def exact_report():
    clear_all_memos()
    return run_all(quick=True, exact=True)


class TestGoldenArtifacts:
    def test_fast_path_matches_pre_fastpath_goldens(self, fast_report, tmp_path):
        assert _artifact_bytes(fast_report, tmp_path) == _golden_bytes()

    def test_exact_mode_matches_pre_fastpath_goldens(self, exact_report, tmp_path):
        assert _artifact_bytes(exact_report, tmp_path) == _golden_bytes()

    def test_fast_and_exact_reports_agree_on_every_value(
        self, fast_report, exact_report
    ):
        assert fast_report.factors == exact_report.factors
        assert fast_report.tables == exact_report.tables
        assert (
            fast_report.table7_recommendations
            == exact_report.table7_recommendations
        )


class TestFastPathTelemetry:
    def test_fast_report_carries_stats(self, fast_report):
        stats = fast_report.fastpath
        assert stats is not None
        assert stats.answered == 54  # 39 SBR + 2 OBR + 13 CCFC quick cells
        assert stats.refused == 0
        assert stats.ineligible == 3  # the Fig 7 flood cells
        assert stats.total == fast_report.cell_count == 57
        assert stats.hit_rate == pytest.approx(54 / 57)
        assert stats.calibration_runs == 0

    def test_uncollected_run_meters_only_the_planner_decisions(self, fast_report):
        """Fast-path cells run unmetered, like ``GridRunner(collect=False)``
        cells: the snapshot holds the decision counters and nothing else."""
        assert list(fast_report.metrics) == [FASTPATH_CELLS]
        assert not any(name.startswith("repro_segment_") for name in fast_report.metrics)
        counts = {
            sample["labels"]["outcome"]: sample["value"]
            for sample in fast_report.metrics[FASTPATH_CELLS]["samples"]
        }
        stats = fast_report.fastpath
        assert counts == {"answered": stats.answered, "ineligible": stats.ineligible}

    def test_fast_report_phases(self, fast_report):
        assert set(fast_report.phase_seconds) == {"fastpath", "grid", "static"}
        assert all(s >= 0 for s in fast_report.phase_seconds.values())

    def test_exact_report_has_no_fastpath(self, exact_report):
        assert exact_report.fastpath is None
        assert set(exact_report.phase_seconds) == {"grid", "static"}

    def test_collect_obs_disables_fast_path(self):
        clear_all_memos()
        report = run_all(quick=True, vendors=["gcore"], collect_obs=True)
        assert report.fastpath is None

    def test_outcomes_cover_grid_in_order(self, fast_report):
        assert [profile.experiment for profile in fast_report.cells] == (
            ["flood"] * 3 + ["sbr"] * 39 + ["obr"] * 2 + ["ccfc"] * 13
        )
        assert all(profile.ok for profile in fast_report.cells)


class Killed(Exception):
    pass


def _kill_after(n):
    def observer(outcome, done, total):
        if done == n:
            raise Killed()

    return observer


class TestFastPathCheckpointing:
    def test_killed_resume_matches_goldens(self, tmp_path):
        """Kill the residual grid mid-run, resume, compare bytes.

        The journal only contains simulated (flood) cells; the resumed
        run re-plans the fast path deterministically on top of it.
        """
        clear_all_memos()
        path = tmp_path / "ckpt.jsonl"
        with pytest.raises(Killed):
            run_all(
                quick=True,
                checkpoint_path=path,
                observer=_kill_after(1),
            )
        assert path.exists()

        resumed = run_all(quick=True, checkpoint_path=path, resume=True)
        assert resumed.restored_cells > 0
        assert _artifact_bytes(resumed, tmp_path / "resumed") == _golden_bytes()

    def test_checkpoint_journals_only_the_residual(self, tmp_path):
        from repro.runner.checkpoint import RunCheckpoint

        clear_all_memos()
        path = tmp_path / "ckpt.jsonl"
        report = run_all(quick=True, checkpoint_path=path)
        assert report.fastpath is not None
        # 57 cells, 54 answered by the fast path: only the 3 flood
        # cells ever reach the journal.
        assert RunCheckpoint(path).completed_count == 3

    def test_exact_run_resumes_from_fast_journal(self, tmp_path):
        """Switching modes between runs is safe: digests match but the
        residual indices differ, so restore falls back to re-running."""
        clear_all_memos()
        path = tmp_path / "ckpt.jsonl"
        run_all(quick=True, vendors=["gcore"], checkpoint_path=path)
        report = run_all(
            quick=True,
            vendors=["gcore"],
            exact=True,
            checkpoint_path=path,
            resume=True,
        )
        assert _artifact_bytes(
            report, tmp_path / "exact"
        ) == _artifact_bytes(
            run_all(quick=True, vendors=["gcore"]), tmp_path / "fast"
        )
