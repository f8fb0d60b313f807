"""The exactness the rewrite phase's fast paths rest on, against brute force.

* :func:`~repro.optimizer.rewrite.merge_conjunction`, over
  ``hypothesis``-generated conjunctions of one to four predicates on at
  most two columns (every operator, point ``BETWEEN``, singleton,
  unsorted and duplicate ``IN``, repeated predicates): its output
  admits exactly the points of a value grid its input admits, and
  merging that output again returns ``None``.  The merge answers
  ``None`` without merging when its no-op check passes; a conjunction
  the check lets through must come back unchanged from the full
  per-column merge.
* :func:`~repro.sql.join_column_classes` equals a brute-force
  transitive closure of the join conditions, classes in the same order.
* The rules' node copy builds what ``dataclasses.replace`` builds, the
  pre-order tuple included.
"""

import dataclasses
import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.optimizer.rewrite import (
    _is_canonical,
    _merge_column,
    _replace,
    build_logical_plan,
    merge_conjunction,
    walk_logical,
)
from repro.sql import parse_query
from repro.sql.ast import (
    ColumnRef,
    ComparisonOperator,
    JoinCondition,
    Predicate,
    join_column_classes,
)

pytestmark = pytest.mark.rewrite

Op = ComparisonOperator
COLUMNS = (ColumnRef("t", "x"), ColumnRef("t", "y"))
#: Half steps included, so open and closed bounds differ.
GRID = [value / 2 for value in range(-2, 15)]   # -1.0, -0.5, ..., 7.0
POINTS = list(itertools.product(GRID, repeat=len(COLUMNS)))

_VALUES = st.integers(min_value=0, max_value=6)
_COLUMN = st.sampled_from(COLUMNS)
_PREDICATES = st.one_of(
    st.builds(Predicate, _COLUMN,
              st.sampled_from([Op.EQ, Op.NEQ, Op.LT, Op.LEQ, Op.GT, Op.GEQ]),
              _VALUES),
    # Equal bounds make a point BETWEEN.
    st.builds(lambda column, a, b: Predicate(column, Op.BETWEEN,
                                             (min(a, b), max(a, b))),
              _COLUMN, _VALUES, _VALUES),
    # Singleton, unsorted and duplicate members.
    st.builds(lambda column, members: Predicate(column, Op.IN,
                                                tuple(members)),
              _COLUMN, st.lists(_VALUES, min_size=1, max_size=4)),
    # Already sorted and distinct: the form the no-op check passes.
    st.builds(lambda column, members: Predicate(column, Op.IN,
                                                tuple(sorted(members))),
              _COLUMN, st.lists(_VALUES, min_size=1, max_size=4,
                                unique=True)),
)


@st.composite
def _conjunctions(draw):
    """One to four predicates, each a new one or a repeat of an earlier."""
    predicates = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        if predicates and draw(st.booleans()):
            predicates.append(draw(st.sampled_from(predicates)))
        else:
            predicates.append(draw(_PREDICATES))
    return tuple(predicates)


def _admits(predicate: Predicate, value: float) -> bool:
    operator, target = predicate.operator, predicate.value
    if operator is Op.BETWEEN:
        return target[0] <= value <= target[1]
    if operator is Op.IN:
        return value in target
    return {Op.EQ: value == target, Op.NEQ: value != target,
            Op.LT: value < target, Op.LEQ: value <= target,
            Op.GT: value > target, Op.GEQ: value >= target}[operator]


def _members(predicates) -> set:
    return {point for point in POINTS
            if all(_admits(p, point[COLUMNS.index(p.column)])
                   for p in predicates)}


@given(predicates=_conjunctions())
def test_merge_admits_exactly_its_input_and_is_a_fixpoint(predicates):
    merged = merge_conjunction(predicates)
    output = predicates if merged is None else merged
    assert _members(output) == _members(predicates)
    assert merge_conjunction(output) is None


@given(predicates=_conjunctions())
def test_what_the_no_op_check_passes_the_full_merge_keeps(predicates):
    if _is_canonical(predicates):
        # The per-column merge, without the no-op check in front of it.
        columns = dict.fromkeys(predicate.column for predicate in predicates)
        full = [kept for column in columns
                for kept in _merge_column(column, [p for p in predicates
                                                   if p.column == column])]
        assert full == list(predicates)


_POOL = [ColumnRef(table, column) for table in "abc" for column in "xy"]


@given(pairs=st.lists(st.tuples(st.sampled_from(_POOL),
                                st.sampled_from(_POOL)), max_size=6))
def test_join_column_classes_is_the_transitive_closure(pairs):
    reach: dict[ColumnRef, set[ColumnRef]] = {}
    for left, right in pairs:
        reach.setdefault(left, {left}).add(right)
        reach.setdefault(right, {right}).add(left)
    # Each round at least doubles the length of the paths covered.
    for _ in range(len(reach)):
        reach = {column: set().union(*(reach[other] for other in linked))
                 for column, linked in reach.items()}
    closure = {frozenset(linked) for linked in reach.values()
               if len(linked) >= 2}
    expected = tuple(sorted(closure,
                            key=lambda group: min(map(str, group))))
    joins = tuple(JoinCondition(left, right) for left, right in pairs)
    assert join_column_classes(joins) == expected


def test_node_copy_is_dataclasses_replace():
    root = build_logical_plan(parse_query(
        "SELECT COUNT(*), SUM(b.y) FROM a, b, c "
        "WHERE a.x = b.x AND b.x = c.x AND a.y > 1 GROUP BY c.y"))
    for node in walk_logical(root):
        for field in dataclasses.fields(node):
            value = getattr(node, field.name)
            if field.name == "children":
                value = tuple(reversed(value))   # a different pre-order
            fast = _replace(node, **{field.name: value})
            slow = dataclasses.replace(node, **{field.name: value})
            assert type(fast) is type(slow)
            assert vars(fast) == vars(slow)   # the pre-order tuple too
