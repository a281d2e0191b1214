"""Seeded inputs for every workload.

Every input is a pure function of ``(seed, workload, iteration)``, so
two runs with one seed do identical work and the program under test
only ever sees the generated values.  Streams are keyed by string
seeds (``random.Random`` hashes those with SHA-512), which keeps them
independent of ``PYTHONHASHSEED`` and of each other.

Mixes are drawn from :class:`Deck` objects rather than independent
coin flips: each pass through a deck holds the exact proportions, so a
run of a few hundred requests carries the stated share of cold keys and
expensive items instead of a binomial draw of them.  That keeps the
cross-seed spread of the timings down to what the inputs really change.

Serve requests are hot or cold as a whole: 70% of requests (and so of
items) ask only about hot keys, 30% only about fresh ones.  Mixing the
two inside a request would make about half of all requests partly cold,
which puts the median latency on the edge between the memo-hit and the
analysis mode, where it swings with every small change in the mix.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Any, Dict, Hashable, List, Sequence, Set, Tuple

MB = 1 << 20

#: The 13 vendors of the paper's Table IV.
VENDORS = (
    "akamai", "alibaba", "azure", "cdn77", "cdnsun", "cloudflare",
    "cloudfront", "fastly", "gcore", "huawei", "keycdn", "stackpath",
    "tencent",
)
#: The 11 exploitable FCDN -> BCDN cascades of the paper's Table V.
CASCADES = tuple(
    (fcdn, bcdn)
    for fcdn in ("cdn77", "cdnsun", "cloudflare", "stackpath")
    for bcdn in ("akamai", "azure", "stackpath")
    if fcdn != bcdn
)

SBR_SIZES = (1 * MB, 32 * MB)
OBR_SIZES = (512, 4096)
#: ``repro serve`` refuses exact simulation above 8 MB.
EXACT_SIZES = (1 * MB, 8 * MB)


def rng_for(seed: int, *labels: object) -> random.Random:
    """An independent stream for one (seed, purpose, index) triple."""
    return random.Random(":".join(str(part) for part in (seed,) + labels))


class Deck:
    """Draws a fixed multiset in shuffled passes."""

    def __init__(self, rng: random.Random, cards: Sequence[Any]) -> None:
        self._rng = rng
        self._cards = list(cards)
        self._pile: List[Any] = []

    def draw(self) -> Any:
        if not self._pile:
            self._pile = list(self._cards)
            self._rng.shuffle(self._pile)
        return self._pile.pop()


# -- batch workloads ---------------------------------------------------------


def reproduce_inputs(seed: int, index: int) -> Dict[str, Any]:
    """The paper grid is fixed, so reproduce takes no seeded input."""
    return {}


def simulate_inputs(seed: int, index: int) -> Dict[str, Any]:
    """One exact grid: a Table V cascade, 13 vendors x 3 SBR sizes and
    13 CCFC cells.  Every 11 consecutive iterations visit each cascade
    once, in a seeded order, so cascade costs balance within a run."""
    round_, position = divmod(index, len(CASCADES))
    order = list(CASCADES)
    rng_for(seed, "simulate-order", round_).shuffle(order)
    rng = rng_for(seed, "simulate", index)
    return {
        "cascade": list(order[position]),
        "obr_size": rng.randint(*OBR_SIZES),
        "sbr_sizes": sorted(rng.sample(range(SBR_SIZES[0], SBR_SIZES[1] + 1), 3)),
        "ccfc_size": rng.randint(*SBR_SIZES),
    }


def audit_inputs(seed: int, index: int) -> Dict[str, Any]:
    """Fresh SBR/OBR/CCFC sizes, so every size-keyed cache misses."""
    rng = rng_for(seed, "audit", index)
    return {
        "sbr_size": rng.randint(*SBR_SIZES),
        "obr_size": rng.randint(*OBR_SIZES),
        "ccfc_size": rng.randint(*SBR_SIZES),
    }


BATCH_INPUTS = {
    "reproduce": reproduce_inputs,
    "simulate": simulate_inputs,
    "audit": audit_inputs,
}


# -- serve traffic -----------------------------------------------------------

HOT_KEYS = 64
#: Per 20 requests: 12 analyze, 5 recommend, 3 exact analyze.
ENDPOINT_CARDS = ("analyze",) * 12 + ("recommend",) * 5 + ("exact",) * 3
#: Item kinds: 50% sbr, 25% ccfc, 25% obr.
KIND_CARDS = ("sbr", "sbr", "ccfc", "obr")
EXACT_KIND_CARDS = ("sbr", "sbr", "ccfc")
#: Per 10 requests: 7 only about hot keys, 3 only about fresh sizes.
HOT_CARDS = (True,) * 7 + (False,) * 3
ANALYZE_ITEM_COUNTS = (1, 2, 3, 4)
RECOMMEND_ITEM_COUNTS = (1, 2)

PATHS = {"analyze": "/v1/analyze", "recommend": "/v1/recommend", "exact": "/v1/analyze"}


@dataclass(frozen=True)
class Request:
    """One batch request: its endpoint path and JSON body."""

    path: str
    body: bytes
    items: int


def item_key(item: Dict[str, Any]) -> Tuple[Hashable, ...]:
    if "fcdn" in item:
        return ("obr", item["fcdn"], item["bcdn"], item["size"])
    return (item.get("attack", "sbr"), item["vendor"], item["size"])


def _item(kind: str, subject: Any, size: int) -> Dict[str, Any]:
    if kind == "obr":
        return {"fcdn": subject[0], "bcdn": subject[1], "size": size}
    item: Dict[str, Any] = {"vendor": subject, "size": size}
    if kind == "ccfc":
        item["attack"] = "ccfc"
    return item


def _request(endpoint: str, items: List[Dict[str, Any]]) -> Request:
    body = json.dumps({"items": items}, sort_keys=True).encode("utf-8")
    return Request(path=PATHS[endpoint], body=body, items=len(items))


def hot_set(seed: int) -> List[Dict[str, Any]]:
    """64 distinct items in the 2:1:1 kind mix.  SBR/CCFC sizes stay
    within the exact-simulation limit so any hot item can also be an
    exact item."""
    rng = rng_for(seed, "hot-set")
    items: List[Dict[str, Any]] = []
    seen: Set[Tuple[Hashable, ...]] = set()
    kinds = Deck(rng, KIND_CARDS)
    while len(items) < HOT_KEYS:
        kind = kinds.draw()
        if kind == "obr":
            item = _item(kind, rng.choice(CASCADES), rng.randint(*OBR_SIZES))
        else:
            item = _item(kind, rng.choice(VENDORS), rng.randint(*EXACT_SIZES))
        if item_key(item) not in seen:
            seen.add(item_key(item))
            items.append(item)
    return items


class Traffic:
    """The serve workload's requests for one seed.

    Generate phases in a fixed order (warm-up first): fresh keys are
    drawn per phase from that phase's own stream, but never repeat a
    key any earlier phase or the hot set used, so every cold item is a
    real cache miss.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.hot = hot_set(seed)
        self._used: Set[Tuple[Hashable, ...]] = {item_key(i) for i in self.hot}

    def warmup(self) -> List[Request]:
        """Every hot item analyzed, recommended and (SBR/CCFC) measured
        exactly once, so the measured phases see warm hot keys."""
        requests = [
            _request("analyze", self.hot[i : i + 4]) for i in range(0, HOT_KEYS, 4)
        ]
        requests += [
            _request("recommend", self.hot[i : i + 2]) for i in range(0, HOT_KEYS, 2)
        ]
        exact = [dict(item, exact=True) for item in self.hot if "vendor" in item]
        requests += [
            _request("exact", exact[i : i + 4]) for i in range(0, len(exact), 4)
        ]
        return requests

    def phase(self, name: str, count: int) -> List[Request]:
        rng = rng_for(self.seed, "serve", name)
        hotness = Deck(rng, HOT_CARDS)
        # Hot and cold requests draw from decks of their own, and so do
        # the two endpoints, so the expensive cold mix is exact too, not
        # a binomial share of the cold requests: a cold OBR item costs
        # 10-100x any other, its recommendation ~3x its analysis, and
        # the costliest cascade ~4x the cheapest.
        cascades = {endpoint: Deck(rng, CASCADES) for endpoint in ("analyze", "recommend")}
        mixes = {
            hot: {
                "endpoint": Deck(rng, ENDPOINT_CARDS),
                "kind": {
                    endpoint: Deck(rng, KIND_CARDS) for endpoint in ("analyze", "recommend")
                },
                "exact": Deck(rng, EXACT_KIND_CARDS),
                "analyze": Deck(rng, ANALYZE_ITEM_COUNTS),
                "recommend": Deck(rng, RECOMMEND_ITEM_COUNTS),
            }
            for hot in (True, False)
        }
        hot_by_kind: Dict[str, List[Dict[str, Any]]] = {}
        for item in self.hot:
            hot_by_kind.setdefault(item_key(item)[0], []).append(item)

        def draw(kind: str, hot: bool, endpoint: str) -> Dict[str, Any]:
            if hot:
                return dict(rng.choice(hot_by_kind[kind]))
            exact = endpoint == "exact"
            cascade = cascades[endpoint].draw() if kind == "obr" else None
            while True:
                if cascade is not None:
                    item = _item(kind, cascade, rng.randint(*OBR_SIZES))
                else:
                    sizes = EXACT_SIZES if exact else SBR_SIZES
                    item = _item(kind, rng.choice(VENDORS), rng.randint(*sizes))
                if item_key(item) not in self._used:
                    self._used.add(item_key(item))
                    return item

        requests = []
        for _ in range(count):
            hot = hotness.draw()
            mix = mixes[hot]
            endpoint = mix["endpoint"].draw()
            if endpoint == "exact":
                item = draw(mix["exact"].draw(), hot, endpoint)
                item["exact"] = True
                requests.append(_request(endpoint, [item]))
                continue
            kinds = mix["kind"][endpoint]
            items = [draw(kinds.draw(), hot, endpoint) for _ in range(mix[endpoint].draw())]
            requests.append(_request(endpoint, items))
        return requests


def arrivals(seed: int, phase: str, rate: float, duration_s: float) -> List[float]:
    """Open-loop due times (seconds from phase start): a Poisson process
    conditioned on exactly ``rate * duration_s`` arrivals."""
    rng = rng_for(seed, "arrivals", phase)
    count = max(1, round(rate * duration_s))
    return sorted(rng.uniform(0.0, duration_s) for _ in range(count))
