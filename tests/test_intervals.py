"""Interval algebra: construction, membership, sums, unions, zero hulls."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtlcheck.engine import _closed_bounds
from mtlcheck.formula import (
    FULL,
    FormulaError,
    Interval,
    convex_union_with_zero,
    minkowski_sum,
    overlap_union,
    singleton,
    without_zero,
)
from oracles import hull_with_zero_contains, intervals, sum_set_contains, union_contains


class TestConstruction:
    def test_rejects_negative_lower(self):
        with pytest.raises(FormulaError):
            Interval(-1, 3)

    def test_rejects_inverted_bounds(self):
        with pytest.raises(FormulaError):
            Interval(5, 3)

    def test_rejects_empty_singleton_shapes(self):
        for lc, uc in ((True, False), (False, True), (False, False)):
            with pytest.raises(FormulaError):
                Interval(3, 3, lc, uc)

    def test_unbounded_must_be_open_above(self):
        with pytest.raises(FormulaError):
            Interval(0, None, True, True)

    def test_contains_respects_brackets(self):
        iv = Interval(2, 5, False, True)
        assert not iv.contains(2)
        assert iv.contains(3)
        assert iv.contains(5)
        assert not iv.contains(6)
        assert FULL.contains(0) and FULL.contains(10**9)

    def test_integer_members(self):
        # the reducers read an interval as the closed bounds of its integers
        assert _closed_bounds(Interval(1, 4, False, True)) == (2, 4)
        assert _closed_bounds(singleton(7)) == (7, 7)
        assert _closed_bounds(Interval(2, 3, False, False)) == (3, 2)  # no integer
        assert _closed_bounds(Interval(2, None, False, False)) == (3, None)

    def test_text_forms(self):
        assert str(Interval(3, 7)) == "[3,7]"
        assert str(Interval(0, 4, False, True)) == "(0,4]"
        assert str(singleton(5)) == "=5"
        assert str(Interval(2, None, True, False)) == "[2,inf)"


class TestElementwiseSum:
    def test_shifting_a_window_by_a_step(self):
        assert minkowski_sum(singleton(4), Interval(0, 3)) == Interval(4, 7)

    def test_zero_singleton_is_identity(self):
        for iv in (Interval(0, 3), Interval(2, 9, False, True), singleton(5)):
            assert minkowski_sum(singleton(0), iv) == iv
            assert minkowski_sum(iv, singleton(0)) == iv

    def test_bracket_combination(self):
        got = minkowski_sum(Interval(1, 3, False, True), Interval(2, 5, True, False))
        assert got == Interval(3, 8, False, False)

    def test_requires_bounded_operands(self):
        with pytest.raises(FormulaError):
            minkowski_sum(Interval(2, 4), Interval(3, None, True, False))

    @settings(max_examples=200, deadline=None)
    @given(intervals(max_bound=20), intervals(max_bound=20), st.integers(min_value=-2, max_value=45))
    def test_membership_matches_pointwise_sums(self, i, j, x):
        got = minkowski_sum(i, j)
        assert got.contains(x) == sum_set_contains(i, j, x)


class TestOverlapUnion:
    def test_windows_sharing_an_endpoint(self):
        assert overlap_union(Interval(3, 4), Interval(4, 7)) == Interval(3, 7)

    def test_step_aligned_chain(self):
        k = 5
        assert overlap_union(Interval(0, k), Interval(k, 2 * k)) == Interval(0, 2 * k)

    def test_disjoint_rejected(self):
        with pytest.raises(FormulaError):
            overlap_union(Interval(0, 2), Interval(5, 7))

    def test_touching_fully_open_rejected(self):
        with pytest.raises(FormulaError):
            overlap_union(Interval(0, 2, True, False), Interval(2, 4, False, False))

    def test_touching_merges_when_one_side_closed(self):
        got = overlap_union(Interval(0, 2), Interval(2, 4, False, False))
        assert got == Interval(0, 4, True, False)

    @settings(max_examples=200, deadline=None)
    @given(intervals(max_bound=20), intervals(max_bound=20), st.integers(min_value=-2, max_value=25))
    def test_membership_matches_set_union(self, i, j, x):
        first, second = sorted((i, j), key=lambda iv: (iv.lower, not iv.lower_closed))
        gap = first.upper < second.lower or (
            first.upper == second.lower
            and not first.upper_closed
            and not second.lower_closed
        )
        if gap:
            with pytest.raises(FormulaError):
                overlap_union(i, j)
        else:
            got = overlap_union(i, j)
            assert got.contains(x) == union_contains(i, j, x)


class TestZeroHull:
    def test_plain_window(self):
        assert convex_union_with_zero(Interval(3, 7)) == Interval(0, 7)

    def test_window_already_anchored_at_zero(self):
        assert convex_union_with_zero(Interval(0, 13)) == Interval(0, 13)

    def test_open_brackets_keep_the_upper_edge(self):
        assert convex_union_with_zero(Interval(5, 9, False, False)) == Interval(0, 9, True, False)

    def test_unbounded(self):
        assert convex_union_with_zero(Interval(3, None, True, False)) == FULL

    @settings(max_examples=200, deadline=None)
    @given(intervals(max_bound=30), st.integers(min_value=-2, max_value=35))
    def test_membership_matches_hull(self, iv, x):
        assert convex_union_with_zero(iv).contains(x) == hull_with_zero_contains(iv, x)


class TestWithoutZero:
    def test_opens_a_zero_anchored_window(self):
        assert without_zero(Interval(0, 5)) == Interval(0, 5, False, True)

    def test_already_open_or_positive_lower_is_unchanged(self):
        assert without_zero(Interval(0, 5, False, True)) == Interval(0, 5, False, True)
        assert without_zero(Interval(2, 5)) == Interval(2, 5)

    def test_zero_singleton_becomes_empty(self):
        with pytest.raises(FormulaError):
            without_zero(singleton(0))
