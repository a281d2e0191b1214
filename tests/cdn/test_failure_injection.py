"""Failure-injection tests: the pipeline under unhappy conditions.

Errors must relay cleanly through CDN hops, flaky origins must not
corrupt caches, and cache pressure must not change served bytes.
"""

import pytest

from repro.cdn.cache import CdnCache
from repro.cdn.node import CdnNode
from repro.cdn.vendors import create_profile
from repro.cdn.vendors.base import VendorConfig
from repro.core.deployment import CdnSpec, Deployment
from repro.netsim.tap import TrafficLedger
from repro.origin.server import OriginServer

from tests.conftest import FlakyOrigin, get, make_node, make_origin


def _node_over(handler, vendor="gcore"):
    return CdnNode(create_profile(vendor), handler, ledger=TrafficLedger())


class TestErrorRelay:
    @pytest.mark.parametrize("status", [500, 502, 503, 504])
    def test_origin_5xx_relayed_with_vendor_identity(self, status):
        flaky = FlakyOrigin(make_origin(1000), period=1, status=status)
        node = _node_over(flaky)
        response = get(node, range_value="bytes=0-0")
        assert response.status == status
        assert response.headers.get("Server") == "nginx"

    def test_error_relays_through_a_cascade(self):
        flaky = FlakyOrigin(make_origin(1000), period=1, status=503)
        deployment = Deployment.cascade(
            CdnSpec(vendor="cloudflare", config=VendorConfig(bypass_cache=True)),
            CdnSpec(vendor="akamai"),
            OriginServer(),  # placeholder, replaced below
        )
        # Rewire the BCDN onto the flaky origin directly.
        deployment.nodes[1].upstream = flaky
        result = deployment.client().get("/file.bin", range_value="bytes=0-,0-")
        assert result.response.status == 503

    def test_404_not_cached(self):
        origin = make_origin(1000)
        node = make_node("gcore", origin)
        get(node, target="/missing.bin")
        get(node, target="/missing.bin")
        assert origin.stats.requests == 2  # both reached the origin
        assert len(node.cache) == 0


class TestFlakyOriginRecovery:
    def test_alternating_failures_do_not_poison_the_cache(self):
        origin = make_origin(1000)
        flaky = FlakyOrigin(origin, period=2, status=503)
        node = _node_over(flaky)
        statuses = [
            get(node, target=f"/file.bin?cb={i}", range_value="bytes=0-0").status
            for i in range(6)
        ]
        # Odd requests succeed, even ones see the 503.
        assert statuses == [206, 503, 206, 503, 206, 503]
        # Successful responses stayed byte-correct throughout.
        good = get(node, target="/file.bin?cb=100", range_value="bytes=5-9")
        assert good.status == 206
        assert len(good.body) == 5

    def test_azure_flow_degrades_cleanly_on_second_connection_failure(self):
        """If the expansion fetch fails, Azure falls back to the first
        (truncated) window; a range inside it still gets served."""
        origin = make_origin(25 * 1024 * 1024)
        flaky = FlakyOrigin(origin, period=2, status=503)  # 2nd exchange fails
        node = _node_over(flaky, vendor="azure")
        response = get(node, range_value="bytes=0-0")
        assert response.status == 206
        assert len(response.body) == 1


class TestCachePressure:
    def test_eviction_storm_preserves_correctness(self):
        origin = OriginServer()
        content = bytes(i % 256 for i in range(4096))
        from repro.origin.resource import Resource

        origin.add_resource(Resource(path="/file.bin", body=content))
        node = CdnNode(
            create_profile("gcore"),
            origin,
            ledger=TrafficLedger(),
            cache=CdnCache(max_entries=2),
        )
        # Many distinct URLs churn the 2-entry cache.
        for index in range(20):
            response = get(node, target=f"/file.bin?v={index}", range_value="bytes=10-19")
            assert response.body.materialize() == content[10:20]
        assert node.cache.stats.evictions >= 17
        assert len(node.cache) == 2

    def test_cache_hit_after_eviction_refetches(self):
        origin = make_origin(1000)
        node = CdnNode(
            create_profile("gcore"),
            origin,
            ledger=TrafficLedger(),
            cache=CdnCache(max_entries=1),
        )
        get(node, target="/file.bin?v=0")
        get(node, target="/file.bin?v=1")  # evicts v=0
        get(node, target="/file.bin?v=0")  # must refetch
        assert origin.stats.requests == 3
