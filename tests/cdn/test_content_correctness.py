"""Property tests: whatever Range games a vendor plays upstream, the
bytes it hands the client must be the right bytes.

This is the correctness backstop for the whole CDN layer — Deletion,
Expansion, window slicing, multipart assembly, caching, and the
multi-connection quirks all have to compose to byte-exact range
serving.  Hypothesis drives random valid ranges through every vendor and
compares against the origin's ground truth.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cdn.node import CdnNode
from repro.cdn.vendors import all_vendor_names, create_profile
from repro.http.message import HttpRequest
from repro.http.multipart import MultipartByteranges
from repro.netsim.tap import TrafficLedger
from repro.origin.resource import Resource
from repro.origin.server import OriginServer

FILE_SIZE = 4096

# One ground-truth resource shared by every example.
_CONTENT = bytes((i * 31 + 7) % 256 for i in range(FILE_SIZE))


def _fresh_node(vendor: str) -> CdnNode:
    origin = OriginServer()
    origin.add_resource(Resource(path="/file.bin", body=_CONTENT))
    return CdnNode(
        create_profile(vendor),
        origin,
        ledger=TrafficLedger(),
        size_hint_fn=lambda path: FILE_SIZE,
    )


def _get(node: CdnNode, range_value: str, target="/file.bin"):
    return node.handle(
        HttpRequest(
            "GET", target, headers=[("Host", "victim.example"), ("Range", range_value)]
        )
    )


_single_range = st.one_of(
    # closed
    st.tuples(
        st.integers(min_value=0, max_value=FILE_SIZE - 1),
        st.integers(min_value=0, max_value=2 * FILE_SIZE),
    ).map(lambda t: (t[0], f"bytes={t[0]}-{max(t)}", min(max(t), FILE_SIZE - 1))),
    # open-ended
    st.integers(min_value=0, max_value=FILE_SIZE - 1).map(
        lambda first: (first, f"bytes={first}-", FILE_SIZE - 1)
    ),
    # suffix
    st.integers(min_value=1, max_value=2 * FILE_SIZE).map(
        lambda n: (max(0, FILE_SIZE - n), f"bytes=-{n}", FILE_SIZE - 1)
    ),
)


class TestSingleRangeCorrectness:
    @pytest.mark.parametrize("vendor", all_vendor_names())
    @given(case=_single_range)
    @settings(max_examples=25, suppress_health_check=[HealthCheck.too_slow], deadline=None)
    def test_body_matches_origin_slice(self, vendor, case):
        start, range_value, end = case
        node = _fresh_node(vendor)
        response = _get(node, range_value)
        assert response.status == 206, (vendor, range_value)
        assert response.body.materialize() == _CONTENT[start:end + 1], (
            vendor,
            range_value,
        )
        assert response.headers.get("Content-Range") == (
            f"bytes {start}-{end}/{FILE_SIZE}"
        )
        assert response.declared_content_length() == end - start + 1

    @pytest.mark.parametrize("vendor", all_vendor_names())
    def test_second_identical_request_same_bytes(self, vendor):
        """Cache hits, KeyCDN's policy switch, and StackPath's refetch
        must not change the payload."""
        node = _fresh_node(vendor)
        first = _get(node, "bytes=100-199")
        second = _get(node, "bytes=100-199")
        assert first.body.materialize() == second.body.materialize() == _CONTENT[100:200]

    @pytest.mark.parametrize("vendor", all_vendor_names())
    def test_out_of_bounds_is_416_with_correct_length(self, vendor):
        node = _fresh_node(vendor)
        response = _get(node, f"bytes={FILE_SIZE * 2}-{FILE_SIZE * 3}")
        assert response.status == 416
        assert response.headers.get("Content-Range") == f"bytes */{FILE_SIZE}"


class TestMultiRangeCorrectness:
    @pytest.mark.parametrize("vendor", ["akamai", "stackpath", "azure"])
    @given(
        cuts=st.lists(
            st.integers(min_value=0, max_value=FILE_SIZE - 1),
            min_size=4,
            max_size=8,
            unique=True,
        )
    )
    @settings(max_examples=15, suppress_health_check=[HealthCheck.too_slow], deadline=None)
    def test_multipart_parts_match_origin_slices(self, vendor, cuts):
        ordered = sorted(cuts)
        pairs = [
            (ordered[i], ordered[i + 1]) for i in range(0, len(ordered) - 1, 2)
        ]
        # Ensure the ranges are disjoint (Apache would downgrade overlaps).
        range_value = "bytes=" + ",".join(f"{a}-{b}" for a, b in pairs)
        node = _fresh_node(vendor)
        response = _get(node, range_value)
        assert response.status == 206
        if len(pairs) == 1:
            assert response.body.materialize() == _CONTENT[pairs[0][0]:pairs[0][1] + 1]
            return
        boundary = response.content_type.split("boundary=")[1]
        parsed = MultipartByteranges.parse(response.body.materialize(), boundary)
        assert len(parsed) == len(pairs)
        for part, (a, b) in zip(parsed.parts, pairs):
            assert part.payload.materialize() == _CONTENT[a:b + 1]
            assert part.complete_length == FILE_SIZE

    @pytest.mark.parametrize("vendor", ["akamai", "stackpath"])
    def test_overlapping_parts_are_full_copies(self, vendor):
        """The OBR payload: every part must be the complete resource."""
        origin = OriginServer(range_support=False)
        origin.add_resource(Resource(path="/file.bin", body=_CONTENT))
        node = CdnNode(create_profile(vendor), origin, ledger=TrafficLedger())
        response = _get(node, "bytes=0-,0-,0-")
        boundary = response.content_type.split("boundary=")[1]
        parsed = MultipartByteranges.parse(response.body.materialize(), boundary)
        assert len(parsed) == 3
        for part in parsed.parts:
            assert part.payload.materialize() == _CONTENT


class TestCascadeCorrectness:
    def test_obr_multipart_survives_the_fcdn_verbatim(self):
        """The FCDN's lazy passthrough must not alter the BCDN's payload."""
        from repro.cdn.vendors.base import VendorConfig
        from repro.core.deployment import CdnSpec, Deployment

        origin = OriginServer(range_support=False)
        origin.add_resource(Resource(path="/file.bin", body=_CONTENT))
        deployment = Deployment.cascade(
            CdnSpec(vendor="cloudflare", config=VendorConfig(bypass_cache=True)),
            CdnSpec(vendor="akamai"),
            origin,
        )
        result = deployment.client().get("/file.bin", range_value="bytes=0-,0-")
        response = result.response
        assert response.status == 206
        boundary = response.content_type.split("boundary=")[1]
        parsed = MultipartByteranges.parse(response.body.materialize(), boundary)
        assert all(p.payload.materialize() == _CONTENT for p in parsed.parts)
