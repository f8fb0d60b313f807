"""``repro.sql.Interval``: the one reading of a range conjunction.

Everything here is checked against brute-force membership over a small
integer grid (half steps included, so open and closed bounds differ),
and against :func:`repro.engine.expressions.predicate_mask`, the
evaluator an interval must never disagree with.
"""

from functools import reduce

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.engine.expressions import predicate_mask
from repro.sql import ColumnRef, ComparisonOperator, Interval, Predicate

# The rewrite phase's merge_conjunction reads conjunctions through
# Interval, and its no-op check rests on what is proved here.
pytestmark = pytest.mark.rewrite

COLUMN = ColumnRef("t", "x")
GRID = [value / 2 for value in range(-4, 17)]   # -2.0, -1.5, ..., 8.0

_BOUNDS = st.one_of(st.none(), st.integers(min_value=0, max_value=6))
_INTERVALS = st.builds(
    lambda low, low_inc, high, high_inc: Interval(
        low, low_inc or low is None, high, high_inc or high is None),
    _BOUNDS, st.booleans(), _BOUNDS, st.booleans())


def members(interval: Interval) -> set[float]:
    return {value for value in GRID if interval.contains(value)}


@given(left=_INTERVALS, right=_INTERVALS)
def test_intersect_is_set_intersection(left, right):
    both = left.intersect(right)
    assert members(both) == members(left) & members(right)
    assert both == right.intersect(left)
    assert both.intersect(left) == both
    assert both.is_empty == (not members(both))


@given(interval=_INTERVALS)
def test_predicates_round_trip_through_interval(interval):
    predicates = interval.predicates(COLUMN)
    assert len(predicates) <= 2
    folded = reduce(Interval.intersect,
                    (p.interval() for p in predicates), Interval())
    assert folded == interval


@pytest.mark.parametrize("operator,value", [
    (ComparisonOperator.EQ, 3), (ComparisonOperator.LT, 3),
    (ComparisonOperator.LEQ, 3), (ComparisonOperator.GT, 3),
    (ComparisonOperator.GEQ, 3), (ComparisonOperator.BETWEEN, (2, 5)),
])
def test_interval_agrees_with_the_evaluator(operator, value):
    predicate = Predicate(COLUMN, operator, value)
    mask = predicate_mask(np.asarray(GRID), None, predicate)
    assert members(predicate.interval()) == set(np.asarray(GRID)[mask])


@pytest.mark.parametrize("operator,value", [
    (ComparisonOperator.NEQ, 3), (ComparisonOperator.IN, (1, 2, 3))])
def test_not_every_predicate_is_a_range(operator, value):
    assert Predicate(COLUMN, operator, value).interval() is None


def test_unbounded_point_and_empty():
    assert members(Interval()) == set(GRID)
    assert not Interval().is_empty
    assert Interval().predicates(COLUMN) == ()

    point = Interval(3, True, 3, True)
    assert members(point) == {3.0} and not point.is_empty
    assert point.predicates(COLUMN) == (
        Predicate(COLUMN, ComparisonOperator.EQ, 3),)
    assert Interval(2, True, 5, True).predicates(COLUMN) == (
        Predicate(COLUMN, ComparisonOperator.BETWEEN, (2, 5)),)
    assert Interval(2, False, 5, True).predicates(COLUMN) == (
        Predicate(COLUMN, ComparisonOperator.GT, 2),
        Predicate(COLUMN, ComparisonOperator.LEQ, 5))

    for empty in (Interval(3, True, 3, False), Interval(3, False, 3, True),
                  Interval(3, False, 3, False), Interval(4, True, 3, True)):
        assert empty.is_empty and not members(empty)


def test_a_later_bound_never_reopens_an_earlier_one():
    """The four conjunctions the executor's own fold used to misread."""
    def fold(*predicates):
        return reduce(Interval.intersect,
                      (Predicate(COLUMN, op, value).interval()
                       for op, value in predicates))

    op = ComparisonOperator
    assert fold((op.GT, 100), (op.GEQ, 100), (op.LT, 200)) == \
        Interval(100, False, 200, False)
    assert fold((op.LT, 200), (op.LEQ, 200), (op.GT, 100)) == \
        Interval(100, False, 200, False)
    assert fold((op.GT, 50), (op.BETWEEN, (100, 199))) == \
        Interval(100, True, 199, True)
    assert fold((op.GT, 150), (op.EQ, 120)).is_empty
