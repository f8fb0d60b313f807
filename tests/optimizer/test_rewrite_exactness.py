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
* The join conditions the rewrite derives are exactly the pairs of that
  brute-force closure that are no condition yet.
* The whole pass, over ``hypothesis``-generated flat queries on one to
  three tables: each scan's conjunction admits exactly the grid points
  it admitted, the scan columns are the qualified columns the query's
  SQL text names, a rewritten query rewrites to itself, and the trace
  names exactly the steps that changed the query, in pass order.
"""

import itertools
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.optimizer.rewrite import (
    RewritePlanner,
    _derived_joins,
    _is_canonical,
    _merge_column,
    merge_conjunction,
)
from repro.sql.ast import (
    AggregateFunction,
    AggregateSpec,
    ColumnRef,
    ComparisonOperator,
    JoinCondition,
    Predicate,
    Query,
    TableRef,
    join_column_classes,
)

pytestmark = pytest.mark.rewrite

Op = ComparisonOperator
COLUMNS = (ColumnRef("t", "x"), ColumnRef("t", "y"))
#: Half steps included, so open and closed bounds differ.
GRID = [value / 2 for value in range(-2, 15)]   # -1.0, -0.5, ..., 7.0
POINTS = list(itertools.product(GRID, repeat=len(COLUMNS)))

_VALUES = st.integers(min_value=0, max_value=6)


def _predicates(column):
    """Single predicates on a column drawn from ``column``."""
    return st.one_of(
        st.builds(Predicate, column,
                  st.sampled_from([Op.EQ, Op.NEQ, Op.LT, Op.LEQ, Op.GT,
                                   Op.GEQ]),
                  _VALUES),
        # Equal bounds make a point BETWEEN.
        st.builds(lambda column, a, b: Predicate(column, Op.BETWEEN,
                                                 (min(a, b), max(a, b))),
                  column, _VALUES, _VALUES),
        # Singleton, unsorted and duplicate members.
        st.builds(lambda column, members: Predicate(column, Op.IN,
                                                    tuple(members)),
                  column, st.lists(_VALUES, min_size=1, max_size=4)),
        # Already sorted and distinct: the form the no-op check passes.
        st.builds(lambda column, members: Predicate(column, Op.IN,
                                                    tuple(sorted(members))),
                  column, st.lists(_VALUES, min_size=1, max_size=4,
                                   unique=True)),
    )


_PREDICATES = _predicates(st.sampled_from(COLUMNS))


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


def _members(predicates, columns=COLUMNS) -> set:
    return {point for point in POINTS
            if all(_admits(p, point[columns.index(p.column)])
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
_PAIRS = st.lists(st.tuples(st.sampled_from(_POOL), st.sampled_from(_POOL)),
                  max_size=6)


def _brute_force_classes(pairs) -> tuple[frozenset[ColumnRef], ...]:
    """The transitive closure of ``pairs``' links, classes of two or more
    columns ordered by their smallest member's string form."""
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
    return tuple(sorted(closure, key=lambda group: min(map(str, group))))


@given(pairs=_PAIRS)
def test_join_column_classes_is_the_transitive_closure(pairs):
    joins = tuple(JoinCondition(left, right) for left, right in pairs)
    assert join_column_classes(joins) == _brute_force_classes(pairs)


@given(pairs=_PAIRS)
def test_derived_joins_are_the_missing_pairs_of_the_closure(pairs):
    joins = tuple(JoinCondition(left, right) for left, right in pairs)
    linked = {frozenset(pair) for pair in pairs}
    expected = tuple(
        JoinCondition(left, right)
        for group in _brute_force_classes(pairs)
        for left, right in itertools.combinations(sorted(group, key=str), 2)
        if left.table != right.table
        and frozenset((left, right)) not in linked)
    assert _derived_joins(joins) == expected


@st.composite
def _queries(draw):
    """A flat query over one to three of the tables ``a``, ``b`` and
    ``c``, each with columns ``x`` and ``y``: join conditions between
    two of them, a conjunction with repeats, aggregates and
    ``GROUP BY``."""
    aliases = draw(st.lists(st.sampled_from("abc"), min_size=1, max_size=3,
                            unique=True))
    column = st.sampled_from([ColumnRef(alias, name)
                              for alias in aliases for name in "xy"])
    joins = draw(st.lists(
        st.builds(JoinCondition, column, column).filter(
            lambda join: join.left.table != join.right.table),
        max_size=4))
    predicates = draw(st.lists(_predicates(column), max_size=5))
    if predicates:
        predicates += draw(st.lists(st.sampled_from(predicates), max_size=2))
    aggregates = draw(st.lists(st.one_of(
        st.just(AggregateSpec(AggregateFunction.COUNT)),
        st.builds(AggregateSpec,
                  st.sampled_from([AggregateFunction.SUM,
                                   AggregateFunction.MIN,
                                   AggregateFunction.AVG]),
                  column)), max_size=2))
    return Query(tables=tuple(TableRef(alias) for alias in aliases),
                 joins=tuple(joins), predicates=tuple(predicates),
                 aggregates=tuple(aggregates),
                 group_by=tuple(draw(st.lists(column, max_size=2,
                                              unique=True))))


@given(query=_queries())
def test_each_scan_keeps_exactly_its_rows(query):
    rewritten = RewritePlanner().rewrite(query).query
    for alias in query.table_names:
        columns = (ColumnRef(alias, "x"), ColumnRef(alias, "y"))
        assert _members(rewritten.predicates_on(alias), columns) \
            == _members(query.predicates_on(alias), columns)
    assert len(rewritten.predicates) == sum(
        len(rewritten.predicates_on(alias)) for alias in query.table_names)


_QUALIFIED = re.compile(r"\b([a-z]\w*)\.([a-z]\w*)\b")


@given(query=_queries())
def test_scan_columns_are_the_columns_the_sql_text_names(query):
    named: dict[str, set[str]] = {}
    for alias, column in _QUALIFIED.findall(str(query)):
        named.setdefault(alias, set()).add(column)
    expected = [(alias, tuple(sorted(named[alias])))
                for alias in sorted(named)]
    assert list(RewritePlanner().rewrite(query).scan_columns.items()) \
        == expected


@given(query=_queries())
def test_a_rewritten_query_rewrites_to_itself(query):
    once = RewritePlanner().rewrite(query)
    twice = RewritePlanner().rewrite(once.query)
    assert twice.query == once.query
    assert twice.scan_columns == once.scan_columns
    assert "filter-merge" not in twice.trace.firings
    assert "transitive-joins" not in twice.trace.firings


@given(query=_queries())
def test_the_trace_names_the_steps_that_changed_the_query(query):
    result = RewritePlanner().rewrite(query)
    linked = {frozenset((join.left, join.right)) for join in query.joins}
    derives = any(
        left.table != right.table and frozenset((left, right)) not in linked
        for group in _brute_force_classes(
            [(join.left, join.right) for join in query.joins])
        for left, right in itertools.combinations(group, 2))
    merged = [alias for alias in query.table_names
              if merge_conjunction(query.predicates_on(alias)) is not None]
    expected = (["predicate-pushdown"] if query.predicates else []) \
        + ["filter-merge"] * len(merged) \
        + (["transitive-joins"] if derives else []) \
        + (["projection-pruning"] if result.scan_columns else [])
    assert result.trace.firings == tuple(expected)
