"""Runner degradation: one attempt per cell, failure chains."""

from repro.runner.executor import CellFailure, GridRunner
from repro.runner.grid import ExperimentCell, ExperimentGrid
from repro.runner.experiments import register

_FLAKY_FAILURES = {}


def _run_flaky(cell):
    """Fails until its per-key budget is spent."""
    key = cell.key
    budget = cell.kwargs()["failures"]
    seen = _FLAKY_FAILURES.get(key, 0)
    if seen < budget:
        _FLAKY_FAILURES[key] = seen + 1
        raise ConnectionError(f"transient {seen + 1}/{budget}")
    return "recovered"


register("flaky-res", _run_flaky)


def _flaky_cell(name, failures):
    return ExperimentCell.make("flaky-res", ("flaky", name), failures=failures)


class TestCellRetries:
    def setup_method(self):
        _FLAKY_FAILURES.clear()

    def test_zero_retries_fail_immediately(self):
        """The runner never retries: a raising cell fails on its one
        attempt, even when a second attempt would have succeeded."""
        grid = ExperimentGrid("flaky", [_flaky_cell("b", 1)])
        result = GridRunner().run(grid)
        assert not result.outcomes[0].ok
        assert result.outcomes[0].failure.exception_type == "ConnectionError"
        assert _FLAKY_FAILURES[("flaky", "b")] == 1


class TestCellFailureChain:
    def test_cause_chain_is_captured(self):
        try:
            try:
                raise KeyError("missing-vendor")
            except KeyError as inner:
                raise ValueError("bad cell config") from inner
        except ValueError as error:
            failure = CellFailure.from_exception(error)
        assert failure.exception_type == "ValueError"
        assert len(failure.chain) == 2
        assert failure.chain[0].startswith("ValueError")
        assert failure.chain[1].startswith("KeyError")
        assert "root cause: KeyError" in failure.describe()

    def test_implicit_context_is_followed(self):
        try:
            try:
                raise OSError("disk gone")
            except OSError:
                raise RuntimeError("while handling")  # no 'from'
        except RuntimeError as error:
            failure = CellFailure.from_exception(error)
        assert failure.chain[-1].startswith("OSError")

    def test_suppressed_context_is_not_followed(self):
        try:
            try:
                raise OSError("disk gone")
            except OSError:
                raise RuntimeError("clean slate") from None
        except RuntimeError as error:
            failure = CellFailure.from_exception(error)
        assert len(failure.chain) == 1
        assert failure.describe() == "RuntimeError: clean slate"

    def test_cyclic_chain_terminates(self):
        error = ValueError("self-caused")
        error.__cause__ = error
        failure = CellFailure.from_exception(error)
        assert failure.chain == ("ValueError: self-caused",)

    def test_chain_survives_pickling_in_equality(self):
        import pickle

        try:
            raise ValueError("x")
        except ValueError as error:
            failure = CellFailure.from_exception(error)
        clone = pickle.loads(pickle.dumps(failure))
        assert clone == failure


class TestCellFailureChainDeterminism:
    """Regression for the id()-keyed cycle guard flagged by
    ``repro purity``: the guard now compares identity directly, so no
    address-derived value exists on the checkpoint path."""

    def test_two_node_cycle_terminates(self):
        first = ValueError("a")
        second = KeyError("b")
        first.__cause__ = second
        second.__cause__ = first
        failure = CellFailure.from_exception(first)
        assert failure.chain == ("ValueError: a", "KeyError: 'b'")

    def test_equal_but_distinct_exceptions_both_recorded(self):
        # Identity (not equality) must drive the cycle guard: two
        # distinct-but-equal links are both part of the chain.
        first = ValueError("same")
        second = ValueError("same")
        first.__cause__ = second
        failure = CellFailure.from_exception(first)
        assert failure.chain == ("ValueError: same", "ValueError: same")
