"""Unit tests for the ABNF-driven Range header generator."""

import pytest

from repro.cdn.limits import HeaderLimits
from repro.http.grammar import (
    RangeCorpusGenerator,
    RangeFormat,
    obr_value_size,
    overlapping_open_ranges_value,
    single_range_value,
    suffix_range_value,
)
from repro.http.message import HttpRequest
from repro.http.ranges import parse_range_header


class TestAttackBuilders:
    def test_single_range_value(self):
        assert single_range_value(0, 0) == "bytes=0-0"
        assert single_range_value(5) == "bytes=5-"

    def test_suffix_range_value(self):
        assert suffix_range_value(1) == "bytes=-1"

    def test_overlapping_open_ranges(self):
        assert overlapping_open_ranges_value(3) == "bytes=0-,0-,0-"

    def test_overlapping_with_leading(self):
        assert overlapping_open_ranges_value(3, leading="-1024") == "bytes=-1024,0-,0-"
        assert overlapping_open_ranges_value(3, leading="1-") == "bytes=1-,0-,0-"

    def test_single_with_leading(self):
        assert overlapping_open_ranges_value(1, leading="-1024") == "bytes=-1024"

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            overlapping_open_ranges_value(0)

    @pytest.mark.parametrize("n", [1, 2, 7, 100, 5455])
    @pytest.mark.parametrize("leading", [None, "-1024", "1-"])
    def test_value_size_is_exact(self, n, leading):
        value = overlapping_open_ranges_value(n, leading=leading)
        assert obr_value_size(n, leading=leading) == len(value)

    def test_generated_values_are_valid_range_headers(self):
        for n in (1, 2, 64, 500):
            value = overlapping_open_ranges_value(n, leading="-1024")
            spec = parse_range_header(value)
            assert len(spec) == n

    @pytest.mark.parametrize("limit", [10, 16, 100, 16384, 32768])
    @pytest.mark.parametrize("leading", [None, "-1024", "1-"])
    def test_max_for_value_size_is_tight(self, limit, leading):
        # obr_value_size inverted by division: the single-line range cap
        # on a Range line whose value may take ``limit`` bytes.
        line_limit = limit + len("Range: \r\n")
        value = overlapping_open_ranges_value(1, leading=leading)
        request = HttpRequest("GET", "/", headers=[("Range", value)])
        step = obr_value_size(2, leading=leading) - len(value)
        n = HeaderLimits(max_single_header_line_bytes=line_limit).range_cap(request, 1, step)
        if n == 0:
            assert obr_value_size(1, leading=leading) > limit
            return
        assert obr_value_size(n, leading=leading) <= limit
        assert obr_value_size(n + 1, leading=leading) > limit


class TestCorpusGenerator:
    def test_generation_is_deterministic(self):
        one = RangeCorpusGenerator(file_size=4096, seed=1).full_corpus()
        two = RangeCorpusGenerator(file_size=4096, seed=1).full_corpus()
        assert [c.header_value for c in one] == [c.header_value for c in two]

    def test_different_seeds_differ(self):
        one = RangeCorpusGenerator(file_size=4096, seed=1).full_corpus()
        two = RangeCorpusGenerator(file_size=4096, seed=2).full_corpus()
        assert [c.header_value for c in one] != [c.header_value for c in two]

    def test_every_case_is_grammatically_valid(self):
        corpus = RangeCorpusGenerator(file_size=4096).full_corpus()
        assert len(corpus) > 50
        for case in corpus:
            spec = parse_range_header(case.header_value)
            assert len(spec) >= 1

    def test_all_formats_covered(self):
        corpus = RangeCorpusGenerator(file_size=4096).full_corpus()
        formats = {case.format for case in corpus}
        assert formats == set(RangeFormat)

    def test_attack_shapes_present(self):
        corpus = RangeCorpusGenerator(file_size=4096).full_corpus()
        values = [c.header_value for c in corpus]
        assert "bytes=0-0" in values  # the SBR shape
        assert any(v.startswith("bytes=0-,0-") for v in values)  # the OBR shape

    def test_multi_open_cases_overlap(self):
        generator = RangeCorpusGenerator(file_size=4096)
        for case in generator.multi_open_cases():
            spec = parse_range_header(case.header_value)
            assert spec.has_overlaps(4096)

    def test_multi_closed_cases_do_not_overlap(self):
        generator = RangeCorpusGenerator(file_size=4096)
        for case in generator.multi_closed_cases():
            spec = parse_range_header(case.header_value)
            assert not spec.has_overlaps(4096)

    def test_tiny_file_size_rejected(self):
        with pytest.raises(ValueError):
            RangeCorpusGenerator(file_size=2)
