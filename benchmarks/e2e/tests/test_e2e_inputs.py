"""Seeded inputs: one seed, one traffic; the stated mix, exactly."""

import json
from collections import Counter

import inputs


def _traffic(seed):
    traffic = inputs.Traffic(seed)
    return (
        traffic.warmup(),
        traffic.phase("light", 200),
        traffic.phase("heavy", 400),
        traffic.phase("capacity", 300),
    )


def test_a_seed_always_generates_the_same_traffic():
    assert _traffic(7) == _traffic(7)
    assert inputs.arrivals(7, "heavy", 80.0, 5.0) == inputs.arrivals(7, "heavy", 80.0, 5.0)
    for workload, make in inputs.BATCH_INPUTS.items():
        assert [make(7, i) for i in range(25)] == [make(7, i) for i in range(25)], workload


def test_other_seeds_generate_other_traffic():
    assert _traffic(7)[1] != _traffic(8)[1]
    assert inputs.arrivals(7, "heavy", 80.0, 5.0) != inputs.arrivals(8, "heavy", 80.0, 5.0)
    assert inputs.audit_inputs(7, 0) != inputs.audit_inputs(8, 0)


def _items(requests):
    return [item for request in requests for item in json.loads(request.body)["items"]]


def test_cold_keys_never_repeat_hot_or_earlier_keys():
    traffic = inputs.Traffic(3)
    hot = {inputs.item_key(item) for item in traffic.hot}
    assert len(hot) == inputs.HOT_KEYS
    seen = set()
    for name, count in (("light", 200), ("heavy", 400), ("capacity", 300)):
        keys = [inputs.item_key(item) for item in _items(traffic.phase(name, count))]
        cold = [key for key in keys if key not in hot]
        assert len(cold) == len(set(cold)), name
        assert not seen & set(cold), name
        seen |= set(cold)


def test_request_mix_holds_exactly_per_deck_pass():
    requests = inputs.Traffic(5).phase("heavy", 200)  # ten full endpoint decks
    endpoints = Counter(
        "exact" if b'"exact": true' in r.body else r.path.rsplit("/", 1)[1] for r in requests
    )
    assert endpoints == {"analyze": 120, "recommend": 50, "exact": 30}
    hot = {inputs.item_key(item) for item in inputs.hot_set(5)}
    temperature = Counter()
    for request in requests:
        keys = [inputs.item_key(item) in hot for item in _items([request])]
        temperature["hot" if all(keys) else "cold" if not any(keys) else "mixed"] += 1
    assert temperature == {"hot": 140, "cold": 60}
    for item in _items(requests):
        if item.get("exact"):
            assert item["size"] <= 8 << 20


def test_cold_obr_items_visit_each_cascade_once_per_eleven_per_endpoint():
    traffic = inputs.Traffic(6)
    hot = {inputs.item_key(item) for item in traffic.hot}
    by_endpoint = {}
    for request in traffic.phase("heavy", 2000):
        for item in _items([request]):
            if "fcdn" in item and inputs.item_key(item) not in hot:
                by_endpoint.setdefault(request.path, []).append((item["fcdn"], item["bcdn"]))
    for path, cascades in by_endpoint.items():
        assert len(cascades) >= 22, path
        for start in range(0, len(cascades) - 10, 11):
            assert set(cascades[start : start + 11]) == set(inputs.CASCADES), path


def test_simulate_visits_each_cascade_once_per_eleven_iterations():
    for start in (0, 11):
        cascades = {tuple(inputs.simulate_inputs(4, i)["cascade"]) for i in range(start, start + 11)}
        assert cascades == set(inputs.CASCADES)


def test_arrivals_are_a_conditioned_poisson_schedule():
    due = inputs.arrivals(2, "light", 40.0, 3.0)
    assert len(due) == 120
    assert due == sorted(due)
    assert 0.0 <= due[0] and due[-1] <= 3.0
