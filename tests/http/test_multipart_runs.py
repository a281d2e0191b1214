"""Wire identity of the run-length multipart encoder.

:meth:`MultipartByteranges.to_body` encodes each run of identical parts
once and repeats it with a :class:`RepeatedBody`.  The reference below is
the part-by-part encoder it replaced: one delimiter, header block,
payload and CRLF per part.  Every encoding, size and slice must match it
byte for byte, including a delivery cut that lands inside a run.
"""

from itertools import groupby

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cdn.node import CdnNode
from repro.cdn.vendors import create_profile
from repro.http.body import Body, CompositeBody, RepeatedBody, SyntheticBody
from repro.http.message import HttpRequest
from repro.http.multipart import MultipartByteranges
from repro.http.ranges import ResolvedRange, parse_range_header
from repro.netsim.tap import TrafficLedger
from repro.origin.resource import Resource
from repro.origin.server import OriginServer

SIZE = 64


def reference_body(multipart: MultipartByteranges) -> CompositeBody:
    """The part-by-part encoder: 4 pieces per part, no runs."""
    delimiter = f"--{multipart.boundary}\r\n".encode("latin-1")
    closer = f"--{multipart.boundary}--\r\n".encode("latin-1")
    pieces = []
    for part in multipart.parts:
        pieces += [delimiter, part.header_blob(), part.payload, b"\r\n"]
    pieces.append(closer)
    return CompositeBody(pieces)


def _build(header: str) -> MultipartByteranges:
    return MultipartByteranges.build(
        SyntheticBody(SIZE), parse_range_header(header).resolve(SIZE), "text/plain"
    )


HEADERS = {
    "repeated-open": "bytes=" + ",".join(["0-"] * 50),
    "distinct": "bytes=0-0,5-9,20-30,40-",
    "suffix": "bytes=-3,-3,-3,-10",
    "mixed": "bytes=-3,-3,0-,0-,0-,2-4,2-4,1-1,0-,0-,0-,0-,-1",
    "runs-of-one": "bytes=0-,1-,0-,1-,0-",
    "single-run": "bytes=0-,0-,0-,0-,0-,0-,0-",
    "single-part": "bytes=3-7",
}


@pytest.mark.parametrize("header", HEADERS.values(), ids=HEADERS.keys())
def test_encoding_matches_reference(header):
    multipart = _build(header)
    body = multipart.to_body()
    expected = reference_body(multipart).materialize()
    assert body.materialize() == expected
    assert len(body) == multipart.wire_size() == len(expected)
    parsed = parse_range_header(header)
    assert len(multipart) == len(parsed)
    # One run per maximal stretch of equal consecutive ranges.
    windows = [
        spec.resolve(SIZE) for spec, count in parsed.runs for _ in range(count)
    ]
    assert len(multipart.runs) == len(list(groupby(windows)))


def test_one_run_is_one_repeated_piece():
    multipart = _build(HEADERS["single-run"])
    [(part, count)] = multipart.runs
    assert count == 7
    repeated, _closer = multipart.to_body().parts
    assert isinstance(repeated, RepeatedBody)
    assert len(repeated) == 7 * (multipart.part_overhead(part) + SIZE)


def test_equal_but_distinct_instances_share_a_run():
    # Different specs that resolve to the same window share one run.
    multipart = _build("bytes=0-,0-63,-64,0-100,-99")
    assert [count for _, count in multipart.runs] == [5]
    assert multipart.to_body().materialize() == reference_body(multipart).materialize()


def test_parse_round_trips_runs():
    multipart = _build(HEADERS["mixed"])
    blob = multipart.to_body().materialize()
    parsed = MultipartByteranges.parse(blob, multipart.boundary)
    assert [p.content_range for p in parsed.parts] == [
        p.content_range for p in multipart.parts
    ]
    assert parsed.to_body().materialize() == blob


_SPECS = st.sampled_from(["0-", "-3", "2-4", "1-1", "60-", "0-63"])


@given(
    specs=st.lists(st.tuples(_SPECS, st.integers(1, 6)), min_size=1, max_size=6),
    cut=st.tuples(st.integers(-5, 3000), st.integers(-5, 3000)),
)
@settings(max_examples=150, deadline=None)
def test_every_slice_matches_reference(specs, cut):
    header = "bytes=" + ",".join(spec for spec, repeat in specs for _ in range(repeat))
    multipart = _build(header)
    body, reference = multipart.to_body(), reference_body(multipart)
    assert body.materialize() == reference.materialize()
    sliced: Body = body.slice(*cut)
    assert sliced.materialize() == reference.slice(*cut).materialize()
    assert len(sliced) == len(reference.slice(*cut))


class TestTruncatedDelivery:
    """A capped upstream fetch (Azure's 8 MB cut) hands the node a prefix
    of the multipart; the cut below lands inside the 0- run."""

    PARTS = 40

    def _nodes(self):
        origin = OriginServer(range_support=False)
        origin.add_resource(Resource(path="/file.bin", body=SyntheticBody(1024)))
        bcdn = CdnNode(create_profile("akamai"), origin, ledger=TrafficLedger())
        fcdn = CdnNode(create_profile("cdn77"), bcdn, upstream_segment="fcdn-bcdn")
        return bcdn, fcdn

    def _request(self):
        return HttpRequest(
            "GET",
            "/file.bin",
            headers=[
                ("Host", "victim.example"),
                ("Range", "bytes=" + ",".join(["0-"] * self.PARTS)),
            ],
        )

    @pytest.mark.parametrize("cap", [1, 1100, 1024 * 17 + 333, 40_000])
    def test_capped_fetch_is_a_prefix_of_the_reference(self, cap):
        bcdn, fcdn = self._nodes()
        full = bcdn.handle(self._request())
        boundary = full.content_type.split("boundary=")[1]
        reference = reference_body(
            MultipartByteranges.build(
                SyntheticBody(1024),
                [(ResolvedRange(0, 1023), self.PARTS)],
                "application/octet-stream",
                boundary=boundary,
            )
        ).materialize()
        assert full.body.materialize() == reference
        assert cap < len(reference)

        received = fcdn._exchange(self._request(), payload_cap=cap)
        assert received.body.materialize() == reference[:cap]
        (connection,) = fcdn.ledger.connections_on("fcdn-bcdn")
        (record,) = connection.records
        assert record.truncated
