"""Percentile reporting: the highest percentile with >= 10 samples beyond."""

import pytest

import stats


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 90) == 90
    assert stats.percentile(values, 99) == 99
    assert stats.percentile([7.0], 99) == 7.0


@pytest.mark.parametrize(
    "count, expected_pct",
    [
        (19, None),  # even the median has only 9 samples beyond it
        (20, 50),
        (39, 50),  # p75 would leave 9 beyond
        (40, 75),  # audit's 40 samples: p75 has exactly 10 beyond
        (99, 75),
        (100, 90),
        (199, 90),
        (200, 95),
        (999, 95),
        (1000, 99),
    ],
)
def test_tail_percentile_keeps_ten_samples_beyond(count, expected_pct):
    values = [float(i) for i in range(count)]
    found = stats.tail(values)
    if expected_pct is None:
        assert found is None
        return
    pct, value = found
    assert pct == expected_pct
    assert sum(1 for v in values if v > value) >= stats.MIN_BEYOND
    higher = [p for p in stats.TAIL_PERCENTILES if p > pct]
    for other in higher:
        assert stats.beyond(other, count) < stats.MIN_BEYOND


def test_describe_states_the_sample_count():
    text = stats.describe([0.001 * i for i in range(40)], "ms", 1000)
    assert "p50=" in text and "p75=" in text and "(n=40)" in text
    assert stats.describe([], "ms") == "n=0"
