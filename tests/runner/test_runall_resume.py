"""run-all under checkpointing: kill mid-grid, resume, compare artifacts."""

import pytest

from repro.errors import ReproError
from repro.runner.runall import run_all, write_report


class Killed(Exception):
    pass


def _kill_after(n):
    def observer(outcome, done, total):
        if done == n:
            raise Killed()

    return observer


def _artifact_bytes(report, directory):
    return {
        path.name: path.read_bytes() for path in write_report(report, directory)
    }


class TestRunAllResume:
    def test_resume_without_checkpoint_path_is_an_error(self):
        with pytest.raises(ReproError):
            run_all(quick=True, vendors=["gcore"], resume=True)

    def test_existing_checkpoint_without_resume_is_an_error(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        path.write_text('{"format": "repro-checkpoint-v1"}\n')
        with pytest.raises(ReproError):
            run_all(quick=True, vendors=["gcore"], checkpoint_path=path)

    def test_killed_run_resumes_to_byte_identical_artifacts(self, tmp_path):
        """The acceptance check: a mid-grid kill plus ``--resume`` ends
        with artifacts identical to an uninterrupted run's."""
        clean = run_all(quick=True, vendors=["gcore"], faults=True)
        clean_files = _artifact_bytes(clean, tmp_path / "clean")

        path = tmp_path / "ckpt.jsonl"
        with pytest.raises(Killed):
            run_all(
                quick=True,
                vendors=["gcore"],
                faults=True,
                checkpoint_path=path,
                observer=_kill_after(3),
            )
        assert path.exists()

        resumed = run_all(
            quick=True,
            vendors=["gcore"],
            faults=True,
            checkpoint_path=path,
            resume=True,
        )
        assert resumed.restored_cells > 0
        resumed_files = _artifact_bytes(resumed, tmp_path / "resumed")
        assert resumed_files == clean_files

    def test_fresh_run_then_resume_restores_everything(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        first = run_all(
            quick=True, vendors=["gcore"], checkpoint_path=path
        )
        again = run_all(
            quick=True,
            vendors=["gcore"],
            checkpoint_path=path,
            resume=True,
        )
        from repro.runner.checkpoint import RunCheckpoint

        assert again.restored_cells == RunCheckpoint(path).completed_count
        assert again.restored_cells > 0
        assert again.factors == first.factors
        assert again.tables == first.tables
