"""Conversion to the reference speed, and a sampler that cleans up."""

import signal
import time

import pytest

import speed


def test_reference_seconds_scale_with_the_sampled_speed():
    # Kernel passes twice as fast as the reference: 1 s of wall time,
    # 0.1 s of it in the sampler, is 1.8 s at the reference speed.
    fast = 2 / speed.REFERENCE_KERNEL_S
    totals = speed.Totals(samples=10, rate_sum=10 * fast, spent_s=0.1)
    assert totals.speed() == pytest.approx(2.0)
    assert totals.reference_s(1.0) == pytest.approx(1.8)
    assert speed.Totals.from_json(totals.to_json()) == totals


def test_an_interval_is_the_difference_of_two_totals():
    earlier = speed.Totals(3, 30.0, 0.25)
    later = speed.Totals(8, 80.0, 0.75)
    assert later - earlier == speed.Totals(5, 50.0, 0.5)
    with pytest.raises(ValueError):
        (earlier - earlier).speed()


def test_the_sampler_samples_busy_time_and_restores_the_signal():
    previous = signal.getsignal(signal.SIGALRM)
    sampler = speed.SpeedSampler(interval_s=0.002)
    built = sampler.totals().spent_s  # building the ring is sampler time
    sampler.start()
    try:
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            sum(range(1000))
    finally:
        sampler.stop()
    totals = sampler.totals()
    assert built > 0
    assert totals.samples >= 10
    assert built < totals.spent_s < built + 0.2
    assert 0.05 < totals.speed() < 20
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is previous
