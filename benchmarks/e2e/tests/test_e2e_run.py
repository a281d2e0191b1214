"""The guard that keeps traced timings out of end-to-end metrics, and
reading a child's output with a deadline."""

import subprocess
import sys

import pytest

import run
from speed import REFERENCE_KERNEL_S, Totals


def _e2e_values():
    return dict.fromkeys(run.metric_units(False), 1.0)


def test_emit_reports_exactly_the_declared_metrics():
    metrics = run.emit(_e2e_values(), trace=False)
    assert set(metrics) == set(run.metric_units(False))
    assert all(set(entry) == {"value", "unit"} for entry in metrics.values())
    with pytest.raises(KeyError):
        run.emit({**_e2e_values(), "extra_ms": 1.0}, trace=False)


def test_a_traced_run_refuses_end_to_end_metrics():
    layers = dict.fromkeys(run.metric_units(True), 0.0)
    run.emit(layers, trace=True)
    with pytest.raises(run.TracedSampleError):
        run.emit({**layers, **_e2e_values()}, trace=True)


def test_end_to_end_metrics_refuse_traced_samples():
    plain = run.Sample(traced=False, setup_s=0.2, op_s=0.3, rss_kb=2048)
    assert run.batch_end_to_end([plain], 1)["op_ms"] == pytest.approx(300.0)
    with pytest.raises(run.TracedSampleError):
        run.batch_end_to_end([plain, run.Sample(traced=True, op_s=0.3)], 1)

    plain_run = run.ServeRun(setup_s=0.3, cpu_ms=2.0)
    assert run.serve_end_to_end(plain_run, [0.3])["op_ms"] == pytest.approx(2.0)
    traced = run.ServeRun(setup_s=0.3, cpu_ms=2.0, trace={"spans": {}})
    with pytest.raises(run.TracedSampleError):
        run.serve_end_to_end(traced, [0.3])


def test_op_time_is_the_median_of_unit_means():
    def samples(*ops):
        return [run.Sample(traced=False, op_s=op) for op in ops]

    # Single-operation units: the plain median.
    assert run.op_seconds(samples(0.1, 0.5, 0.2), 1) == pytest.approx(0.2)
    # Units of two cheap and one dear operation: the median of the three
    # unit means, not the cheap operations' time.
    ops = samples(0.1, 0.1, 1.0, 0.1, 0.1, 1.3, 0.1, 0.1, 0.7)
    assert run.op_seconds(ops, 3) == pytest.approx(0.4)


def test_server_cpu_per_request_is_at_the_reference_speed():
    # 100 samples at half the reference speed, 0.1 s of them in the
    # sampler: 2.1 s of CPU is 1.0 s of work at the reference speed,
    # 2 ms for each of 500 requests.
    half = 1 / (2 * REFERENCE_KERNEL_S)
    earlier = run.ServerSnapshot(10.0, Totals(50, 50 * half, 0.5))
    later = run.ServerSnapshot(12.1, Totals(150, 150 * half, 0.6))
    assert later.cpu_ms_per_request(earlier, 500) == pytest.approx(2.0)


def _child(script):
    return subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE, bufsize=0)


def test_child_output_gives_up_on_a_silent_child():
    proc = _child("import time; print('ready', flush=True); time.sleep(30)")
    try:
        output = run.ChildOutput(proc)
        assert output.line(10.0) == "ready"
        with pytest.raises(TimeoutError):
            output.line(0.2)
    finally:
        run.reap(proc)
    assert proc.returncode is not None


def test_child_output_reads_every_line_to_the_end():
    proc = _child("print('a'); print('b', end='')")
    try:
        assert run.ChildOutput(proc).rest(10.0) == ["a", "b"]
    finally:
        run.reap(proc)
