"""Property-based round-trips for the RFC 7233 range grammar.

Two families of invariants:

* every valid ``Range`` header value this library can express or
  generate parses back to an equivalent :class:`RangeSpecifier`;
* ``multipart/byteranges`` encode/decode round-trips part boundaries,
  Content-Range windows, and byte counts exactly.
"""

from __future__ import annotations

from itertools import groupby

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.http.body import SyntheticBody
from repro.http.grammar import RangeCorpusGenerator, overlapping_open_ranges_value, obr_value_size
from repro.http.multipart import MultipartByteranges
from repro.http.ranges import (
    ByteRangeSpec,
    RangeSpecifier,
    ResolvedRange,
    SuffixByteRangeSpec,
    parse_range_header,
)

MAX_POS = 1 << 40  # range positions well past any resource in the paper


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

@st.composite
def byte_range_specs(draw):
    first = draw(st.integers(min_value=0, max_value=MAX_POS))
    if draw(st.booleans()):
        last = None
    else:
        last = draw(st.integers(min_value=first, max_value=first + MAX_POS))
    return ByteRangeSpec(first, last)


suffix_specs = st.integers(min_value=0, max_value=MAX_POS).map(SuffixByteRangeSpec)


def runs_of(items):
    """Maximal ``(item, count)`` runs of equal neighbours."""
    return [(item, len(list(group))) for item, group in groupby(items)]


range_specifiers = st.lists(
    st.one_of(byte_range_specs(), suffix_specs), min_size=1, max_size=32
).map(lambda specs: RangeSpecifier(runs_of(specs)))


@st.composite
def resolved_range_lists(draw, complete_length):
    count = draw(st.integers(min_value=1, max_value=12))
    ranges = []
    for _ in range(count):
        start = draw(st.integers(min_value=0, max_value=complete_length - 1))
        end = draw(st.integers(min_value=start, max_value=complete_length - 1))
        ranges.append(ResolvedRange(start, end))
    return ranges


# ---------------------------------------------------------------------------
# Range header round-trips
# ---------------------------------------------------------------------------

@given(range_specifiers)
def test_range_specifier_roundtrips_through_header_value(spec):
    parsed = parse_range_header(spec.to_header_value())
    assert parsed == spec
    # And serialization is a fixed point.
    assert parsed.to_header_value() == spec.to_header_value()


@given(range_specifiers, st.integers(min_value=1, max_value=MAX_POS))
def test_roundtrip_preserves_resolution(spec, complete_length):
    """Parsing back yields the same satisfiable windows (or the same 416)."""
    from repro.errors import RangeNotSatisfiableError

    parsed = parse_range_header(spec.to_header_value())
    try:
        expected = spec.resolve(complete_length)
    except RangeNotSatisfiableError:
        expected = None
    try:
        actual = parsed.resolve(complete_length)
    except RangeNotSatisfiableError:
        actual = None
    assert actual == expected


@given(
    st.integers(min_value=1, max_value=512),
    st.sampled_from([None, "-1024", "1-"]),
)
def test_obr_value_parses_with_declared_count_and_size(count, leading):
    """The OBR attack string: n specs, analytic size matches, parses clean."""
    value = overlapping_open_ranges_value(count, leading=leading)
    assert len(value) == obr_value_size(count, leading=leading)
    parsed = parse_range_header(value)
    assert len(parsed) == count


def test_generated_corpus_parses_back_equivalently():
    """Every ABNF-generated valid case (the Exp 1 dataset) round-trips."""
    for case in RangeCorpusGenerator(file_size=4096).full_corpus():
        parsed = parse_range_header(case.header_value)
        assert parsed.to_header_value() == case.header_value.replace(" ", ""), case
        reparsed = parse_range_header(parsed.to_header_value())
        assert reparsed == parsed, case


# ---------------------------------------------------------------------------
# multipart/byteranges round-trips
# ---------------------------------------------------------------------------

@st.composite
def multipart_payloads(draw):
    complete_length = draw(st.integers(min_value=1, max_value=4096))
    ranges = draw(resolved_range_lists(complete_length))
    return complete_length, ranges


@given(multipart_payloads())
@settings(max_examples=60)
def test_multipart_encode_decode_roundtrips(payload):
    complete_length, ranges = payload
    resource = SyntheticBody(complete_length)
    original = MultipartByteranges.build(
        resource, runs_of(ranges), content_type="application/octet-stream"
    )
    blob = original.to_body().materialize()

    # Declared wire size is exact.
    assert len(blob) == original.wire_size()

    decoded = MultipartByteranges.parse(blob, original.boundary)
    assert len(decoded) == len(original)
    for original_part, decoded_part in zip(original.parts, decoded.parts):
        assert decoded_part.content_range == original_part.content_range
        assert decoded_part.complete_length == complete_length
        assert len(decoded_part.payload) == original_part.content_range.length
        assert (
            decoded_part.payload.materialize()
            == original_part.payload.materialize()
        )

    # Re-encoding the decoded payload is byte-identical.
    assert decoded.to_body().materialize() == blob


@given(multipart_payloads())
@settings(max_examples=30)
def test_multipart_wire_size_double_counts_overlaps(payload):
    """n overlapping parts carry n payloads — the OBR amplification core."""
    complete_length, ranges = payload
    resource = SyntheticBody(complete_length)
    multipart = MultipartByteranges.build(
        resource, runs_of(ranges), content_type="application/octet-stream"
    )
    payload_bytes = sum(r.length for r in ranges)
    overhead = sum(multipart.part_overhead(p) for p in multipart.parts)
    closer = len(multipart.boundary) + 6
    assert multipart.wire_size() == payload_bytes + overhead + closer
