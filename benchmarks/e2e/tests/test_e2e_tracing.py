"""Span self time, and patch sites that always get their originals back."""

import importlib
import json
from pathlib import Path

import pytest

import child
import tracing


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_nested_wrapped_spans():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)

    def leaf():
        clock.now += 2.0

    def unwrapped_helper():
        clock.now += 0.5  # not a wrapped span: stays in its caller's self time
        inner()

    def middle():
        clock.now += 1.0
        unwrapped_helper()
        inner()

    def outer():
        clock.now += 1.0
        middle()
        clock.now += 3.0

    inner = tracer.wrap("inner", leaf)
    middle = tracer.wrap("middle", middle)
    tracer.wrap("outer", outer)()

    spans = tracer.snapshot()["spans"]
    assert spans["inner"] == [2, 4.0, 4.0]
    assert spans["middle"] == [1, 1.5, 5.5]
    assert spans["outer"] == [1, 4.0, 9.5]
    assert tracer.covered_s == 9.5


def test_reentry_into_the_same_span_is_folded():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)

    def base(depth):
        clock.now += 1.0
        if depth:
            traced(depth - 1)  # a super() call through the wrapped name

    traced = tracer.wrap("layer.entry", base)
    traced(2)
    assert tracer.snapshot()["spans"]["layer.entry"] == [1, 3.0, 3.0]


def _sites():
    return [(owner, attr, current) for _, owner, attr, current in tracing.sites()]


def _identical(sites):
    return all(vars(owner)[attr] is original for owner, attr, original in sites)


@pytest.fixture
def originals():
    sites = _sites()
    yield sites
    assert _identical(sites)


def test_install_wraps_every_alias_and_restore_returns_the_originals(originals):
    report = importlib.import_module("repro.analysis.report")
    recommend = importlib.import_module("repro.analysis.recommend")
    akamai = importlib.import_module("repro.cdn.vendors.akamai")

    assert report.obr_bound is recommend.obr_bound
    tracer = tracing.Tracer()
    patch = tracing.install(tracer)
    try:
        # Aliases bound with ``from X import f`` are patched too.
        for module in (report, recommend):
            assert getattr(module.obr_bound, "__wrapped_span__", None) == "analysis.bounds"
        # Subclass overrides are patched, not just the base method.
        profile = next(
            cls for cls in vars(akamai).values()
            if isinstance(cls, type)
            and cls.__module__ == akamai.__name__
            and "forward_decision" in vars(cls)
        )
        assert vars(profile)["forward_decision"].__wrapped_span__ == "cdn.forward_decision"
        assert not _identical(originals)
        child.audit_op({"sbr_size": 3 << 20, "obr_size": 777, "ccfc_size": 5 << 20})
    finally:
        patch.restore()
    assert _identical(originals)
    spans = tracer.snapshot()["spans"]
    assert spans["analysis.analyze_vendor_matrix"][0] == 1
    assert spans["analysis.static_max_n"][0] > 0
    assert spans["defense.mitigation_check"][0] > 0


def test_an_untraced_run_leaves_every_entry_point_original(originals):
    child.audit_op({"sbr_size": 2 << 20, "obr_size": 1500, "ccfc_size": 4 << 20})
    assert _identical(originals)


def test_every_per_layer_span_metric_names_a_wrapped_span():
    spec = json.loads((Path(child.HERE).parents[1] / "BENCHMARK.json").read_text())
    spans = {entry.span for entry in tracing.ENTRY_POINTS}
    for metric in spec["per_layer"]:
        span, _, stat = metric["name"].rpartition(".")
        if stat in ("calls", "self_s"):
            assert span in spans, metric["name"]
