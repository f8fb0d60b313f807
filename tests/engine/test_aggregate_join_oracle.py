"""Scalar aggregates over hash joins: generated whole queries against
stdlib ``sqlite3`` and against the materialised join.

A ``PlainAggregate`` placed directly on a ``HashJoin`` folds the join's
per-key multiplicities instead of building its rows
(``Executor._plain_aggregate``).  ``hypothesis`` draws small hand-built
tables — ``int64`` and ``float64`` value columns, duplicate and NULL join
keys on both sides, empty tables — and scalar-aggregate queries over two
or three of them (every function on probe-side and build-side columns,
predicates that keep nothing, two ranges on one column).  Each query is
planned under every hint set of the plan selector that leaves hash joins
on (one of them admits nothing else), and each plan runs through an
executor of its own and again through one executor with a shared
``BuildSideCache``.

* Against ``sqlite3``: ``COUNT`` / ``MIN`` / ``MAX`` exactly, ``SUM`` /
  ``AVG`` to 1e-9 of the sum of magnitudes (what reordering a float sum
  can move), NULL standing for NaN.
* Against the materialised join (``executor._execute_node`` on the
  join, then the aggregates folded row by row here): the join node's
  ``actual_rows`` equal, and every value bit-identical except a float
  ``SUM`` / ``AVG``, which is held to 1e-12 of its sum of magnitudes.
  The integer columns span all of ``int64``, so their sums wrap: the
  fused ``v * w`` wraps as ``v`` added ``w`` times does.
"""

import math
import sqlite3

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sqlite_oracle import load_table

from repro.db import Database, DataType, Schema, TableData
from repro.db.schema import Column, Table
from repro.engine import BuildSideCache, Executor
from repro.errors import OptimizerError
from repro.optimizer import plan_query
from repro.optimizer.learned_planner import _HINT_SETS
from repro.optimizer.planner import PlannerOptions
from repro.plans import HashJoin, PlainAggregate
from repro.sql import AggregateFunction, parse_query

pytestmark = pytest.mark.oracle

#: The hint sets that leave hash joins on; the one that turns merge and
#: nested-loop joins off admits no other join.
_HASH_HINTS = [hints for hints in _HINT_SETS
               if hints.get("enable_hashjoin", True)]
_FORCED = {"enable_mergejoin": False, "enable_nestloop": False}
_TABLES = ("a", "b", "c")
_VALUE_COLUMNS = ("x", "f")           # x int64, f float64
_FUNCTIONS = ("COUNT", "SUM", "AVG", "MIN", "MAX")
_EXACT = (AggregateFunction.COUNT, AggregateFunction.MIN,
          AggregateFunction.MAX)

_SMALL_INTS = st.integers(-50, 50)
_WIDE_INTS = st.one_of(
    st.sampled_from([2**63 - 1, -2**63, 2**62 + 1, -2**62 - 3]),
    st.integers(-2**63, 2**63 - 1))
_FLOATS = st.floats(-1e3, 1e3, allow_nan=False, width=64)


@st.composite
def _table(draw, ints):
    """One table: a duplicate-heavy, nullable join key ``k`` and one
    nullable value column of each dtype."""
    rows = draw(st.integers(0, 9))

    def cells(values):
        return st.lists(st.one_of(st.none(), values),
                        min_size=rows, max_size=rows)

    return {"k": draw(cells(st.integers(0, 3))), "x": draw(cells(ints)),
            "f": draw(cells(_FLOATS))}


@st.composite
def _aggregate(draw, tables):
    function = draw(st.sampled_from(_FUNCTIONS))
    if function == "COUNT" and draw(st.booleans()):
        return "COUNT(*)"
    table = draw(st.sampled_from(tables))
    return f"{function}({table}.{draw(st.sampled_from(_VALUE_COLUMNS))})"


_PREDICATES = ("", "a.x > 1000", "b.f < -2000",
               "a.f >= -500 AND a.f <= 700", "b.x > -20 AND b.x < 30")


@st.composite
def _case(draw, ints):
    """Tables, and one query text over two or three of them."""
    data = {name: draw(_table(ints)) for name in _TABLES}
    tables = _TABLES[:draw(st.integers(2, 3))]
    aggregates = draw(st.lists(_aggregate(tables), min_size=1, max_size=3))
    joins = ["a.k = b.k"] + (["b.k = c.k"] if len(tables) == 3 else [])
    predicate = draw(st.sampled_from(_PREDICATES))
    text = (f"SELECT {', '.join(aggregates)} FROM "
            f"{', '.join(f'{name} {name}' for name in tables)} "
            f"WHERE {' AND '.join(joins + ([predicate] if predicate else []))}")
    return data, text


def _database(data) -> Database:
    tables, table_data = [], {}
    for name, columns in data.items():
        table = Table(name=name, columns=(
            Column("k", DataType.INTEGER), Column("x", DataType.INTEGER),
            Column("f", DataType.FLOAT)))
        arrays, masks = {}, {}
        for column, dtype in (("k", np.int64), ("x", np.int64),
                              ("f", np.float64)):
            cells = columns[column]
            masks[column] = np.array([cell is None for cell in cells],
                                     dtype=bool)
            arrays[column] = np.array([0 if cell is None else cell
                                       for cell in cells], dtype=dtype)
        tables.append(table)
        table_data[name] = TableData(table=table, columns=arrays,
                                     null_masks=masks)
    database = Database.from_tables(
        "agg", Schema.from_tables("agg", tables), table_data)
    database.analyze()
    return database


def _plans(database, query):
    """The query's plans under the hash-join hint sets (None where a hint
    set admits none); the forced one must put the aggregate on a hash
    join."""
    plans = []
    for hints in _HASH_HINTS:
        try:
            plans.append(plan_query(database, query,
                                    PlannerOptions(**hints)))
        except OptimizerError:
            plans.append(None)
    forced = plans[_HASH_HINTS.index(_FORCED)]
    assert isinstance(forced.root, PlainAggregate)
    assert isinstance(forced.root.children[0], HashJoin)
    return plans


def _arms(database, query):
    """``(arm, plan, executor)`` for every plan, per-plan executor first,
    then all of them through one executor with a shared build cache."""
    shared = Executor(database, build_cache=BuildSideCache(4))
    for name, executor in (("per-plan", None), ("shared cache", shared)):
        for hints, plan in zip(_HASH_HINTS, _plans(database, query)):
            if plan is not None:
                yield (f"{name} {hints or 'default'}", plan,
                       executor or Executor(database))


def _close(want: float, got: float, scale: float, rel: float) -> bool:
    if math.isnan(want) or math.isnan(got):
        return math.isnan(want) and math.isnan(got)
    return abs(want - got) <= rel * max(abs(want), scale)


def _magnitudes(connection, text: str, query) -> list[float]:
    """Per aggregate, the sum (AVG: the mean) of its values' magnitudes
    (a placeholder for an exact one)."""
    items = []
    for aggregate in query.aggregates:
        if aggregate.function in _EXACT:
            items.append("COUNT(*)")
        else:
            items.append(f"{aggregate.function.value}"
                         f"(ABS({aggregate.column}))")
    tail = text[text.index(" FROM "):]
    row = connection.execute(f"SELECT {', '.join(items)}{tail}").fetchone()
    return [0.0 if value is None else float(value) for value in row]


@settings(max_examples=120, deadline=None)
@given(_case(_SMALL_INTS))
def test_aggregates_over_hash_joins_match_sqlite(case):
    data, text = case
    database = _database(data)
    query = parse_query(text)
    connection = sqlite3.connect(":memory:")
    try:
        for table in _TABLES:
            load_table(connection, database, table)
        truth = [math.nan if value is None else float(value)
                 for value in connection.execute(text).fetchone()]
        scales = _magnitudes(connection, text, query)
    finally:
        connection.close()
    for arm, plan, executor in _arms(database, query):
        columns = executor.execute(plan).relation.columns
        answer = [float(column[0]) for column in columns.values()]
        for aggregate, want, got, scale in zip(query.aggregates, truth,
                                               answer, scales):
            exact = aggregate.function in _EXACT
            assert _close(want, got, scale, 0.0 if exact else 1e-9), \
                f"{arm}: {aggregate} = {got}, sqlite3 has {want} for {text}"


def _materialised_fold(relation, aggregate) -> float:
    """The aggregate folded over the join's rows, one row at a time."""
    function = aggregate.function
    if aggregate.column is None:
        return float(relation.num_rows)
    values = relation.column(aggregate.column)
    mask = relation.null_mask(aggregate.column)
    if mask is not None:
        values = values[~mask]
    if function is AggregateFunction.COUNT:
        return float(len(values))
    if len(values) == 0:
        return math.nan
    if function is AggregateFunction.SUM:
        return float(values.sum())
    if function is AggregateFunction.AVG:
        return float(values.sum() / len(values))
    return float(values.min() if function is AggregateFunction.MIN
                 else values.max())


def _magnitude(relation, aggregate) -> float:
    if aggregate.column is None or aggregate.function in _EXACT:
        return 0.0
    values = relation.column(aggregate.column).astype(np.float64)
    mask = relation.null_mask(aggregate.column)
    if mask is not None:
        values = values[~mask]
    total = float(np.abs(values).sum())
    return total / max(len(values), 1) \
        if aggregate.function is AggregateFunction.AVG else total


_WRAPS = ({"a": {"k": [1, 1, None], "x": [2**63 - 1, 5, 7],
                "f": [0.1, None, 0.2]},
          "b": {"k": [1, 1, 1], "x": [-2**63, 2, 2**62 + 1],
                "f": [0.3, 0.7, -1.1]},
          "c": {"k": [], "x": [], "f": []}},
          "SELECT SUM(a.x), AVG(b.x), SUM(b.f) FROM a a, b b WHERE a.k = b.k")


@settings(max_examples=120, deadline=None)
@given(_case(_WIDE_INTS))
@example(_WRAPS)
def test_fused_fold_equals_the_materialised_join(case):
    data, text = case
    database = _database(data)
    query = parse_query(text)
    for arm, plan, executor in _arms(database, query):
        columns = executor.execute(plan).relation.columns
        answer = [float(column[0]) for column in columns.values()]
        join = plan.root.children[0]
        fused_rows = join.actual_rows
        relation = Executor(database)._execute_node(join)
        assert fused_rows == relation.num_rows == join.actual_rows, arm
        for aggregate, got in zip(query.aggregates, answer):
            want = _materialised_fold(relation, aggregate)
            floating = (aggregate.column is not None
                        and aggregate.column.column == "f"
                        and aggregate.function not in _EXACT)
            assert _close(want, got, _magnitude(relation, aggregate),
                          1e-12 if floating else 0.0), \
                f"{arm}: {aggregate} = {got}, materialised {want} for {text}"
