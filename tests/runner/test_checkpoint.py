"""Crash-safe checkpointing: journaling, restore rules, and resume runs."""

import json

import pytest

from repro.runner.checkpoint import RunCheckpoint, cell_digest
from repro.runner.executor import GridRunner
from repro.families.sbr import grid_cell as sbr_cell
from repro.runner.experiments import register
from repro.runner.grid import ExperimentCell, ExperimentGrid

KB = 1 << 10


def _echo_cell(value):
    return ExperimentCell.make("echo-ckpt", ("echo", value))


def _run_echo(cell):
    return cell.key[1] * 2


def _run_boom(cell):
    raise RuntimeError(f"boom {cell.key}")


register("echo-ckpt", _run_echo)
register("boom-ckpt", _run_boom)


def _grid(n=4):
    return ExperimentGrid("ckpt", [_echo_cell(i) for i in range(n)])


class TestCellDigest:
    def test_stable_for_equal_cells(self):
        assert cell_digest(_echo_cell(1)) == cell_digest(_echo_cell(1))

    def test_differs_by_key_and_params(self):
        assert cell_digest(_echo_cell(1)) != cell_digest(_echo_cell(2))
        a = ExperimentCell.make("echo-ckpt", ("echo", 1), rounds=1)
        b = ExperimentCell.make("echo-ckpt", ("echo", 1), rounds=2)
        assert cell_digest(a) != cell_digest(b)


class TestJournal:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "run.jsonl"
        grid = _grid()
        checkpoint = RunCheckpoint(path)
        result = GridRunner().run(grid, checkpoint=checkpoint)
        checkpoint.close()

        reloaded = RunCheckpoint(path)
        assert reloaded.completed_count == len(grid)
        restored = reloaded.restore(grid.cells)
        assert sorted(restored) == list(range(len(grid)))
        for index, outcome in restored.items():
            assert outcome == result.outcomes[index]

    def test_header_line_identifies_format(self, tmp_path):
        path = tmp_path / "run.jsonl"
        checkpoint = RunCheckpoint(path)
        GridRunner().run(_grid(1), checkpoint=checkpoint)
        checkpoint.close()
        first = path.read_text().splitlines()[0]
        assert json.loads(first) == {"format": "repro-checkpoint-v1"}

    def test_torn_tail_is_skipped(self, tmp_path):
        path = tmp_path / "run.jsonl"
        grid = _grid(3)
        checkpoint = RunCheckpoint(path)
        GridRunner().run(grid, checkpoint=checkpoint)
        checkpoint.close()
        with open(path, "a") as handle:
            handle.write('{"digest": "deadbeef", "ok": tru')  # killed mid-write
        reloaded = RunCheckpoint(path)
        assert reloaded.completed_count == 3
        assert sorted(reloaded.restore(grid.cells)) == [0, 1, 2]

    def test_failures_are_journaled_but_never_restored(self, tmp_path):
        path = tmp_path / "run.jsonl"
        grid = ExperimentGrid(
            "ckpt", [_echo_cell(0), ExperimentCell.make("boom-ckpt", ("b",))]
        )
        checkpoint = RunCheckpoint(path)
        result = GridRunner().run(grid, checkpoint=checkpoint)
        checkpoint.close()
        assert not result.outcomes[1].ok

        reloaded = RunCheckpoint(path)
        assert reloaded.completed_count == 2  # both journaled...
        assert sorted(reloaded.restore(grid.cells)) == [0]  # ...one restorable

    def test_edited_grid_falls_back_to_recompute(self, tmp_path):
        path = tmp_path / "run.jsonl"
        checkpoint = RunCheckpoint(path)
        GridRunner().run(_grid(2), checkpoint=checkpoint)
        checkpoint.close()
        edited = ExperimentGrid("ckpt", [_echo_cell(7), _echo_cell(8)])
        assert RunCheckpoint(path).restore(edited.cells) == {}

    def test_reordered_grid_is_not_restored_at_wrong_index(self, tmp_path):
        path = tmp_path / "run.jsonl"
        checkpoint = RunCheckpoint(path)
        GridRunner().run(_grid(2), checkpoint=checkpoint)
        checkpoint.close()
        reordered = [_echo_cell(1), _echo_cell(0)]
        assert RunCheckpoint(path).restore(reordered) == {}


class TestResumeRuns:
    def test_resume_skips_completed_cells_and_observer(self, tmp_path):
        path = tmp_path / "run.jsonl"
        grid = _grid()
        checkpoint = RunCheckpoint(path)
        first = GridRunner().run(grid, checkpoint=checkpoint)
        checkpoint.close()

        notified = []
        rerun = GridRunner(
            observer=lambda o, done, total: notified.append(o)
        ).run(grid, checkpoint=RunCheckpoint(path))
        assert notified == []  # nothing re-ran, nothing re-notified
        assert rerun.outcomes == first.outcomes

    def test_interrupted_run_resumes_to_identical_result(self, tmp_path):
        """Kill the run mid-grid (observer raises); the resumed run must
        produce the same outcomes as an uninterrupted one."""
        path = tmp_path / "run.jsonl"
        grid = _grid(6)
        uninterrupted = GridRunner().run(grid)

        class Killed(Exception):
            pass

        def dying_observer(outcome, done, total):
            if done == 3:
                raise Killed()

        checkpoint = RunCheckpoint(path)
        with pytest.raises(Killed):
            GridRunner(observer=dying_observer).run(
                grid, checkpoint=checkpoint
            )
        checkpoint.close()
        assert 0 < RunCheckpoint(path).completed_count < len(grid)

        resumed = GridRunner().run(grid, checkpoint=RunCheckpoint(path))
        assert resumed.outcomes == uninterrupted.outcomes

    def test_resume_from_a_partial_journal_matches_a_fresh_run(self, tmp_path):
        path = tmp_path / "run.jsonl"
        grid = ExperimentGrid(
            "sbr-small", [sbr_cell("gcore", 64 * KB), sbr_cell("gcore", 128 * KB),
                          sbr_cell("fastly", 64 * KB), sbr_cell("fastly", 128 * KB)]
        )
        fresh = GridRunner().run(grid)

        checkpoint = RunCheckpoint(path)
        GridRunner().run(
            ExperimentGrid("sbr-small", grid.cells[:2]), checkpoint=checkpoint
        )
        checkpoint.close()

        resumed = GridRunner().run(grid, checkpoint=RunCheckpoint(path))
        assert resumed.outcomes[:2] == fresh.outcomes[:2]
        assert resumed.outcomes == fresh.outcomes
