"""Unit tests for request-header limits."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cdn.limits import CloudflareRule, HeaderLimits, RequestHead
from repro.defense.mitigations import MAX_OVERLAPPING_RANGES, rfc7233_multirange_guard
from repro.errors import RequestRejectedError
from repro.http.grammar import obr_value_size, overlapping_open_ranges_value
from repro.http.message import HttpRequest


def _request(range_value=None, host="example.com", target="/x"):
    headers = [("Host", host)]
    if range_value is not None:
        headers.append(("Range", range_value))
    return HttpRequest("GET", target, headers=headers)


class TestNoLimits:
    def test_everything_passes(self):
        HeaderLimits().check(_request(range_value="bytes=" + "0-," * 100_000 + "0-"))


class TestTotalHeaderBytes:
    def test_within_limit(self):
        HeaderLimits(max_total_header_bytes=200).check(_request())

    def test_exceeding_rejected_with_431(self):
        limits = HeaderLimits(max_total_header_bytes=100)
        with pytest.raises(RequestRejectedError) as exc_info:
            limits.check(_request(range_value="x" * 200))
        assert exc_info.value.status_code == 431

    def test_boundary_is_inclusive(self):
        request = _request()
        HeaderLimits(max_total_header_bytes=request.header_block_size()).check(request)
        with pytest.raises(RequestRejectedError):
            HeaderLimits(max_total_header_bytes=request.header_block_size() - 1).check(
                request
            )


class TestSingleHeaderLine:
    def test_range_line_measured_with_name_and_crlf(self):
        # "Range: bytes=0-0\r\n" = 18 bytes; host "h" gives an 11-byte line.
        limits = HeaderLimits(max_single_header_line_bytes=18)
        limits.check(_request(range_value="bytes=0-0", host="h"))
        with pytest.raises(RequestRejectedError):
            HeaderLimits(max_single_header_line_bytes=17).check(
                _request(range_value="bytes=0-0", host="h")
            )

    def test_any_header_counts(self):
        limits = HeaderLimits(max_single_header_line_bytes=30)
        with pytest.raises(RequestRejectedError):
            limits.check(_request(host="h" * 100))


class TestMaxRanges:
    def test_azure_style_64_limit(self):
        limits = HeaderLimits(max_ranges=64)
        limits.check(_request(range_value=overlapping_open_ranges_value(64)))
        with pytest.raises(RequestRejectedError) as exc_info:
            limits.check(_request(range_value=overlapping_open_ranges_value(65)))
        assert exc_info.value.status_code == 416

    def test_no_range_header_passes(self):
        HeaderLimits(max_ranges=1).check(_request())

    def test_unparsable_range_passes(self):
        HeaderLimits(max_ranges=1).check(_request(range_value="bytes=zz"))


class TestCloudflareRule:
    def test_formula(self):
        """RL + 2*HHL + RHL must stay within the budget."""
        check = CloudflareRule(budget=100)
        request = _request(range_value="bytes=0-0", host="h", target="/x")
        rl = request.request_line_size()
        hhl = request.headers.field_line_size("Host")
        rhl = request.headers.field_line_size("Range")
        assert rl + 2 * hhl + rhl <= 100
        assert check(request) is None

    def test_violation_message(self):
        check = CloudflareRule(budget=50)
        request = _request(range_value="bytes=" + "0-," * 20 + "0-")
        assert check(request) is not None

    def test_no_range_header_is_exempt(self):
        check = CloudflareRule(budget=1)
        assert check(_request()) is None

    def test_default_budget_fits_paper_n(self):
        """The paper's n=10750 Range header passes; a much larger one
        does not."""
        limits = HeaderLimits(custom=CloudflareRule())
        limits.check(_request(range_value=overlapping_open_ranges_value(10750)))
        with pytest.raises(RequestRejectedError):
            limits.check(_request(range_value=overlapping_open_ranges_value(11000)))


class TestCombinedLimits:
    def test_all_enforced(self):
        limits = HeaderLimits(
            max_total_header_bytes=10_000,
            max_single_header_line_bytes=5_000,
            max_ranges=100,
        )
        limits.check(_request(range_value=overlapping_open_ranges_value(100)))
        with pytest.raises(RequestRejectedError):
            limits.check(_request(range_value=overlapping_open_ranges_value(101)))


def _admits(limits, count, leading=None):
    try:
        limits.check(_request(range_value=overlapping_open_ranges_value(count, leading=leading)))
    except RequestRejectedError:
        return False
    return True


def _cap(limits, leading=None, count=2):
    step = obr_value_size(count + 1, leading=leading) - obr_value_size(count, leading=leading)
    request = _request(range_value=overlapping_open_ranges_value(count, leading=leading))
    return limits.range_cap(RequestHead.of(request), count, step)


class TestRangeCap:
    """Each declared limit solved for the range count: admitted at the
    cap, rejected one range past it."""

    @pytest.mark.parametrize(
        "limits",
        [
            HeaderLimits(max_total_header_bytes=32 * 1024),
            HeaderLimits(max_total_header_bytes=81 * 1024),
            HeaderLimits(max_single_header_line_bytes=16 * 1024),
            HeaderLimits(max_ranges=64),
            HeaderLimits(custom=CloudflareRule()),
            HeaderLimits(
                max_total_header_bytes=10_000,
                max_single_header_line_bytes=5_000,
                max_ranges=1_000,
            ),
            HeaderLimits(
                custom=rfc7233_multirange_guard(),
                max_overlapping_ranges=MAX_OVERLAPPING_RANGES,
            ),
        ],
        ids=[
            "total-32k",
            "total-81k",
            "single-line-16k",
            "max-ranges",
            "cloudflare",
            "combined",
            "rfc7233-guard",
        ],
    )
    @pytest.mark.parametrize("leading", [None, "-1024", "1-"])
    @pytest.mark.parametrize("count", [1, 2, 57])
    def test_cap_is_tight(self, limits, leading, count):
        cap = _cap(limits, leading=leading, count=count)
        assert cap is not None and cap >= 2
        assert _admits(limits, cap, leading=leading)
        assert not _admits(limits, cap + 1, leading=leading)

    def test_cloudflare_cap_matches_the_paper(self):
        # §V-C: Cloudflare fronting Akamai or StackPath reaches n ≈ 10 750.
        assert 10_700 <= _cap(HeaderLimits(custom=CloudflareRule())) <= 10_900

    @pytest.mark.parametrize("leading", [None, "-1024", "1-"])
    def test_guard_gives_its_declared_overlap_cap(self, leading):
        limits = HeaderLimits(
            max_total_header_bytes=32 * 1024,
            custom=rfc7233_multirange_guard(),
            max_overlapping_ranges=MAX_OVERLAPPING_RANGES,
        )
        assert _cap(limits, leading=leading) == MAX_OVERLAPPING_RANGES

    def test_opaque_custom_guard_gives_none(self):
        assert _cap(HeaderLimits(custom=lambda request: None)) is None

    def test_opaque_guard_leaves_declared_limits_solvable(self):
        limits = HeaderLimits(max_ranges=64, custom=lambda request: None)
        assert _cap(limits) == 64

    def test_no_limits_give_none(self):
        assert _cap(HeaderLimits()) is None

    def test_another_oversized_line_admits_no_ranges(self):
        limits = HeaderLimits(max_single_header_line_bytes=100)
        request = _request(range_value="bytes=0-,0-", host="h" * 200)
        assert limits.range_cap(RequestHead.of(request), 2, 3) == 0

    def test_block_already_over_the_limit_admits_no_ranges(self):
        limits = HeaderLimits(max_total_header_bytes=10)
        assert _cap(limits) == 0


def _passes(limits, request):
    try:
        limits.check(request)
    except RequestRejectedError:
        return False
    return True


class TestFits:
    """:meth:`HeaderLimits.fits` is :meth:`HeaderLimits.check` on sizes,
    to the byte: each limit is set within a few bytes (or ranges) of
    what a request with a grown Range value carries."""

    @settings(max_examples=200, deadline=None)
    @given(
        host=st.text(alphabet="abcdefghij.-", min_size=1, max_size=60),
        count=st.integers(min_value=1, max_value=300),
        grow=st.integers(min_value=0, max_value=300),
        leading=st.sampled_from([None, "-1024", "1-"]),
        kind=st.sampled_from(["total", "single", "ranges", "cloudflare"]),
        slack=st.integers(min_value=-4, max_value=4),
    )
    def test_fits_is_check_on_sizes(self, host, count, grow, leading, kind, slack):
        def request(ranges):
            value = overlapping_open_ranges_value(ranges, leading=leading)
            return _request(range_value=value, host=host)

        grown = count + grow
        extra = obr_value_size(grown, leading=leading) - obr_value_size(count, leading=leading)
        head = RequestHead.of(request(count)).grown(extra)
        large = request(grown)
        assert head == RequestHead.of(large)

        limits = {
            "total": lambda: HeaderLimits(max_total_header_bytes=head.block + slack),
            "single": lambda: HeaderLimits(
                max_single_header_line_bytes=max(head.range_line, head.other_line) + slack
            ),
            "ranges": lambda: HeaderLimits(max_ranges=grown + slack),
            "cloudflare": lambda: HeaderLimits(
                custom=CloudflareRule(budget=head.rule_bytes + slack)
            ),
        }[kind]()
        assert limits.opaque_custom is None
        assert limits.fits(head, grown) == _passes(limits, large)

    def test_an_opaque_custom_is_left_to_the_caller(self):
        def guard(request):
            return "rejected"

        limits = HeaderLimits(custom=guard)
        head = RequestHead.of(_request(range_value="bytes=0-,0-"))
        assert limits.opaque_custom is guard
        assert limits.fits(head, 2)
        assert not _passes(limits, _request(range_value="bytes=0-,0-"))
