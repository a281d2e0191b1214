"""Tests for the slice-option mitigation (G-Core's deployed fix)."""

import pytest

from repro.cdn.vendors import create_profile
from repro.core.deployment import CdnSpec, Deployment
from repro.defense.mitigations import with_slicing
from repro.netsim.tap import CDN_ORIGIN
from repro.origin.resource import Resource
from repro.origin.server import OriginServer

MB = 1 << 20
CONTENT = bytes((i * 17 + 3) % 256 for i in range(256 * 1024))


def _deployment(profile, size=10 * MB, content=None):
    origin = OriginServer()
    if content is not None:
        origin.add_resource(Resource(path="/target.bin", body=content))
    else:
        origin.add_synthetic_resource("/target.bin", size)
    return Deployment.single(CdnSpec(profile=profile), origin)


class TestAmplificationBound:
    def test_origin_traffic_bounded_by_slice_size(self):
        profile = with_slicing(create_profile("gcore"), slice_size=64 * 1024)
        deployment = _deployment(profile, size=25 * MB)
        deployment.client().get("/target.bin?cb=0", range_value="bytes=0-0")
        origin_bytes = deployment.response_traffic(CDN_ORIGIN)
        assert origin_bytes <= 64 * 1024 + 1024  # one slice plus headers

    def test_bound_independent_of_resource_size(self):
        for size in (1 * MB, 10 * MB, 25 * MB):
            profile = with_slicing(create_profile("gcore"), slice_size=64 * 1024)
            deployment = _deployment(profile, size=size)
            deployment.client().get("/target.bin?cb=0", range_value="bytes=0-0")
            assert deployment.response_traffic(CDN_ORIGIN) <= 64 * 1024 + 1024

    def test_multi_slice_request_fetches_exactly_the_needed_slices(self):
        profile = with_slicing(create_profile("gcore"), slice_size=64 * 1024)
        deployment = _deployment(profile, size=1 * MB)
        # Bytes spanning slices 1 and 2.
        deployment.client().get(
            "/target.bin", range_value=f"bytes={64 * 1024 + 10}-{192 * 1024 - 1}"
        )
        stats = deployment.ledger.segment_stats(CDN_ORIGIN)
        assert stats.exchange_count == 2
        assert stats.response_bytes_delivered <= 2 * 64 * 1024 + 2048


class TestSliceCache:
    def test_repeat_requests_hit_the_slice_cache(self):
        profile = with_slicing(create_profile("gcore"), slice_size=64 * 1024)
        deployment = _deployment(profile)
        client = deployment.client()
        client.get("/target.bin", range_value="bytes=0-0")
        before = deployment.ledger.segment_stats(CDN_ORIGIN).exchange_count
        client.get("/target.bin", range_value="bytes=5-9")  # same slice
        after = deployment.ledger.segment_stats(CDN_ORIGIN).exchange_count
        assert after == before
        assert len(deployment.front.state.slices) == 1

    def test_new_slice_fetched_on_demand(self):
        profile = with_slicing(create_profile("gcore"), slice_size=64 * 1024)
        deployment = _deployment(profile)
        client = deployment.client()
        client.get("/target.bin", range_value="bytes=0-0")
        client.get("/target.bin", range_value=f"bytes={128 * 1024}-{128 * 1024}")
        assert len(deployment.front.state.slices) == 2


class TestCorrectness:
    def test_sliced_bytes_are_exact(self):
        profile = with_slicing(create_profile("gcore"), slice_size=16 * 1024)
        deployment = _deployment(profile, content=CONTENT)
        result = deployment.client().get(
            "/target.bin", range_value="bytes=30000-70000"
        )
        assert result.response.status == 206
        assert result.response.body.materialize() == CONTENT[30000:70001]

    def test_terminal_partial_slice(self):
        profile = with_slicing(create_profile("gcore"), slice_size=100_000)
        deployment = _deployment(profile, content=CONTENT)  # 262144 bytes
        result = deployment.client().get(
            "/target.bin", range_value=f"bytes=250000-{len(CONTENT) - 1}"
        )
        assert result.response.body.materialize() == CONTENT[250000:]

    def test_unsatisfiable_range_propagates_416(self):
        profile = with_slicing(create_profile("gcore"), slice_size=16 * 1024)
        deployment = _deployment(profile, content=CONTENT)
        result = deployment.client().get(
            "/target.bin", range_value="bytes=99999999-"
        )
        assert result.response.status == 416

    def test_suffix_ranges_fall_back_to_laziness(self):
        profile = with_slicing(create_profile("gcore"))
        deployment = _deployment(profile, content=CONTENT)
        result = deployment.client().get("/target.bin", range_value="bytes=-5")
        assert result.response.status == 206
        assert result.response.body.materialize() == CONTENT[-5:]
        # A lazy forward: origin served exactly the suffix.
        assert deployment.ledger.segment_stats(CDN_ORIGIN).response_bytes_delivered < 2048

    def test_range_disabled_origin_degrades_to_full_fetch(self):
        origin = OriginServer(range_support=False)
        origin.add_resource(Resource(path="/target.bin", body=CONTENT))
        profile = with_slicing(create_profile("gcore"), slice_size=16 * 1024)
        deployment = Deployment.single(CdnSpec(profile=profile), origin)
        result = deployment.client().get("/target.bin", range_value="bytes=0-0")
        assert result.response.status == 206
        assert result.response.body.materialize() == CONTENT[0:1]

    def test_invalid_slice_size(self):
        with pytest.raises(ValueError):
            with_slicing(create_profile("gcore"), slice_size=0)
