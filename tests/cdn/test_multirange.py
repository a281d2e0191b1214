"""Unit tests for multi-range reply behaviors (Table III semantics)."""

import pytest

from repro.cdn.multirange import MultiRangeReplyBehavior, apply_reply_behavior
from repro.errors import RangeNotSatisfiableError
from repro.http.ranges import ResolvedRange

# Behaviors take and return ``(range, count)`` runs.
OVERLAPPING = [(ResolvedRange(0, 9), 3)]
DISJOINT = [(ResolvedRange(0, 1), 1), (ResolvedRange(5, 6), 1)]


class TestHonor:
    def test_keeps_overlapping_duplicates(self):
        parts = apply_reply_behavior(MultiRangeReplyBehavior.HONOR, OVERLAPPING, 10)
        assert parts == OVERLAPPING

    def test_keeps_order(self):
        ranges = [(ResolvedRange(5, 6), 1), (ResolvedRange(0, 1), 1)]
        assert apply_reply_behavior(MultiRangeReplyBehavior.HONOR, ranges, 10) == ranges


class TestCoalesce:
    def test_merges_overlapping(self):
        parts = apply_reply_behavior(MultiRangeReplyBehavior.COALESCE, OVERLAPPING, 10)
        assert parts == [(ResolvedRange(0, 9), 1)]

    def test_keeps_disjoint(self):
        parts = apply_reply_behavior(MultiRangeReplyBehavior.COALESCE, DISJOINT, 10)
        assert parts == DISJOINT


class TestFirstOnly:
    def test_serves_first(self):
        parts = apply_reply_behavior(MultiRangeReplyBehavior.FIRST_ONLY, DISJOINT, 10)
        assert parts == [(ResolvedRange(0, 1), 1)]


class TestReject:
    def test_multi_rejected(self):
        with pytest.raises(RangeNotSatisfiableError):
            apply_reply_behavior(MultiRangeReplyBehavior.REJECT, DISJOINT, 10)

    def test_single_range_always_passes(self):
        single = [(ResolvedRange(0, 1), 1)]
        for behavior in MultiRangeReplyBehavior:
            assert apply_reply_behavior(behavior, single, 10) == single


class TestMaxParts:
    def test_azure_64_limit(self):
        ranges = [(ResolvedRange(0, 9), 64)]
        parts = apply_reply_behavior(
            MultiRangeReplyBehavior.HONOR, ranges, 10, max_parts=64
        )
        assert parts == ranges
        with pytest.raises(RangeNotSatisfiableError):
            apply_reply_behavior(
                MultiRangeReplyBehavior.HONOR, [(ResolvedRange(0, 9), 65)], 10,
                max_parts=64,
            )

    def test_limit_applies_after_coalescing(self):
        # 100 overlapping ranges coalesce to one part: within any limit.
        ranges = [(ResolvedRange(0, 9), 100)]
        parts = apply_reply_behavior(
            MultiRangeReplyBehavior.COALESCE, ranges, 10, max_parts=2
        )
        assert parts == [(ResolvedRange(0, 9), 1)]


class TestValidation:
    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            apply_reply_behavior(MultiRangeReplyBehavior.HONOR, [], 10)
