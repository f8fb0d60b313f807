"""Aggregates over joins: generated whole queries against stdlib
``sqlite3`` and against the materialised join.

An aggregate placed directly on a ``HashJoin`` folds the join's
per-key multiplicities instead of building its rows: a scalar one
always, a grouped one when its keys and the columns it reads all sit on
one side of the join (the matched probe rows, or the build rows they
reach, are grouped).  A grouped one with keys or columns on both sides
groups the join's rows.  All of them feed the executor's one fold
(``_fold``).  ``hypothesis`` draws small hand-built tables —
``int64`` and ``float64`` value columns, duplicate and NULL join keys on
both sides, empty tables — and aggregate queries over two or three of
them, chained on the join key so duplicates meet at both levels (every
function on probe-side and build-side columns, predicates that keep
nothing, two ranges on one column, a contradictory pair), scalar or
``GROUP BY`` one or two nullable columns: half the grouped texts read
one table only, so their keys and columns sit on one side of the root
join, the other half any table.  Each plan runs through an executor of
its own, through one with interpreted filters and again through one
executor with a shared ``BuildSideCache``.

* Against ``sqlite3``, each query planned under every hint set of the
  plan selector (hash joins forced, nested loops forced, index scans
  off, the default): row by row in key order (``ORDER BY <keys> NULLS
  LAST``), group keys and ``COUNT`` / ``MIN`` / ``MAX`` exactly,
  ``SUM`` / ``AVG`` to 1e-9 of the sum of magnitudes (what reordering a
  float sum can move), NULL standing for NaN.
* Against the materialised join, each query planned under the hint
  sets that leave hash joins on (``executor._execute_node`` on the
  join, its rows grouped and folded row by row here, adding in
  ``float64``): every node's ``actual_rows`` equal, the aggregate's its
  number of groups; group keys (dtype, value and sign: a zero float
  key is ``+0.0``, whichever zero its group's first row holds) and
  ``COUNT`` / ``MIN`` / ``MAX`` exactly, and ``SUM`` / ``AVG`` held to 1e-12 of the
  sum of magnitudes.  The integer columns span all of ``int64``, so
  their sums pass 2**63: they round, and the fused ``v * w`` rounds
  within that bound of ``v`` added ``w`` times.
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
from repro.plans import HashAggregate, HashJoin, PlainAggregate
from repro.plans.plan import walk_plan
from repro.sql import AggregateFunction, parse_query

pytestmark = pytest.mark.oracle

#: The hint sets that leave hash joins on; the one that turns nested-loop
#: joins off admits no other join.
_HASH_HINTS = [hints for hints in _HINT_SETS
               if hints.get("enable_hashjoin", True)]
_FORCED = {"enable_nestloop": False}
_TABLES = ("a", "b", "c")
_VALUE_COLUMNS = ("x", "f")           # x int64, f float64
_KEY_COLUMNS = ("k", *_VALUE_COLUMNS)  # every column is nullable
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
    """One table: a duplicate-heavy, nullable join key ``k`` (NULL one
    time in four, so drawn joins often keep rows) and one nullable value
    column of each dtype."""
    rows = draw(st.integers(0, 9))

    def cells(values):
        return st.lists(st.one_of(st.none(), values),
                        min_size=rows, max_size=rows)

    return {"k": draw(st.lists(st.sampled_from((0, 1, 2, None)),
                               min_size=rows, max_size=rows)),
            "x": draw(cells(ints)), "f": draw(cells(_FLOATS))}


@st.composite
def _aggregate(draw, tables):
    function = draw(st.sampled_from(_FUNCTIONS))
    if function == "COUNT" and draw(st.booleans()):
        return "COUNT(*)"
    table = draw(st.sampled_from(tables))
    return f"{function}({table}.{draw(st.sampled_from(_VALUE_COLUMNS))})"


_PREDICATES = ("", "a.x > 1000", "b.f < -2000",
               "a.f >= -500 AND a.f <= 700", "b.x > -20 AND b.x < 30",
               "a.x > 10 AND a.x < 5")


@st.composite
def _case(draw, ints):
    """Tables, and one query text over two or three of them: scalar, or
    (half the time) grouped by one or two columns.  A grouped text reads
    one table only half the time, keys and aggregated columns alike."""
    data = {name: draw(_table(ints)) for name in _TABLES}
    tables = _TABLES[:draw(st.integers(2, 3))]
    grouped = draw(st.booleans())
    read = [draw(st.sampled_from(tables))] \
        if grouped and draw(st.booleans()) else tables
    aggregates = draw(st.lists(_aggregate(read), min_size=1, max_size=3))
    keys = []
    if grouped:
        keys = draw(st.lists(
            st.sampled_from([f"{table}.{column}" for table in read
                             for column in _KEY_COLUMNS]),
            min_size=1, max_size=2, unique=True))
    joins = ["a.k = b.k"] + (["b.k = c.k"] if len(tables) == 3 else [])
    # Half the queries filter nothing: most predicates keep no row.
    predicate = draw(st.sampled_from(_PREDICATES)) if draw(st.booleans()) \
        else ""
    text = (f"SELECT {', '.join(keys + aggregates)} FROM "
            f"{', '.join(f'{name} {name}' for name in tables)} "
            f"WHERE {' AND '.join(joins + ([predicate] if predicate else []))}"
            + (f" GROUP BY {', '.join(keys)}" if keys else ""))
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


def _plans(database, query, hint_sets):
    """The query's plans under ``hint_sets`` (None where a hint set
    admits none); the one forcing hash joins must put the aggregate on a
    hash join."""
    plans = []
    for hints in hint_sets:
        try:
            plans.append(plan_query(database, query,
                                    PlannerOptions(**hints)))
        except OptimizerError:
            plans.append(None)
    forced = plans[hint_sets.index(_FORCED)]
    assert isinstance(forced.root, HashAggregate if query.group_by
                      else PlainAggregate)
    assert isinstance(forced.root.children[0], HashJoin)
    return plans


def _arms(database, query, hint_sets):
    """``(arm, plan, executor)`` for every plan: an executor per plan,
    one with interpreted filters per plan, then all of them through one
    executor with a shared build cache."""
    shared = Executor(database, build_cache=BuildSideCache(4))
    arms = (("per-plan", lambda: Executor(database)),
            ("interpreted filters",
             lambda: Executor(database, compile_filters=False)),
            ("shared cache", lambda: shared))
    for name, executor in arms:
        for hints, plan in zip(hint_sets, _plans(database, query,
                                                 hint_sets)):
            if plan is not None:
                yield f"{name} {hints or 'default'}", plan, executor()


def _close(want: float, got: float, scale: float, rel: float) -> bool:
    if math.isnan(want) or math.isnan(got):
        return math.isnan(want) and math.isnan(got)
    return abs(want - got) <= rel * max(abs(want), scale)


def _magnitudes(connection, text: str, query) -> list[list[float]]:
    """Per result row and aggregate, the sum (AVG: the mean) of its
    values' magnitudes (a placeholder for a key or an exact one)."""
    items = [str(key) for key in query.group_by]
    for aggregate in query.aggregates:
        if aggregate.function in _EXACT:
            items.append("COUNT(*)")
        else:
            items.append(f"{aggregate.function.value}"
                         f"(ABS({aggregate.column}))")
    tail = text[text.index(" FROM "):]
    return [[0.0 if value is None else float(value) for value in row]
            for row in connection.execute(
                f"SELECT {', '.join(items)}{tail}").fetchall()]


@settings(max_examples=200, deadline=None)
@given(_case(_SMALL_INTS))
def test_aggregates_over_joins_match_sqlite(case):
    data, text = case
    database = _database(data)
    query = parse_query(text)
    if query.group_by:
        text += " ORDER BY " + ", ".join(f"{key} NULLS LAST"
                                         for key in query.group_by)
    connection = sqlite3.connect(":memory:")
    try:
        for table in _TABLES:
            load_table(connection, database, table)
        truth = [[math.nan if value is None else float(value)
                  for value in row]
                 for row in connection.execute(text).fetchall()]
        scales = _magnitudes(connection, text, query)
    finally:
        connection.close()
    exact = ([True] * len(query.group_by)
             + [aggregate.function in _EXACT
                for aggregate in query.aggregates])
    items = [*query.group_by, *query.aggregates]
    for arm, plan, executor in _arms(database, query, list(_HINT_SETS)):
        columns = executor.execute(plan).relation.columns
        answer = np.column_stack(list(columns.values())).astype(
            np.float64).tolist()
        assert len(answer) == len(truth), \
            f"{arm}: {len(answer)} rows, sqlite3 has {len(truth)} for {text}"
        for want_row, got_row, scale_row in zip(truth, answer, scales):
            for item, want, got, scale, is_exact in zip(
                    items, want_row, got_row, scale_row, exact):
                assert _close(want, got, scale, 0.0 if is_exact else 1e-9), \
                    f"{arm}: {item} = {got}, sqlite3 has {want} for {text}"


def _materialised_fold(relation, aggregate) -> float:
    """The aggregate folded over the join's rows, one row at a time;
    ``SUM`` and ``AVG`` add in ``float64``."""
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
        return float(values.astype(np.float64).sum())
    if function is AggregateFunction.AVG:
        return float(values.astype(np.float64).sum() / len(values))
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


def _materialised_groups(relation, group_by) -> list[np.ndarray]:
    """The join's rows grouped by ``group_by`` one row at a time: each
    group's rows in join order, groups in ascending key order with a
    NULL key after every value; one group of every row when there are no
    keys."""
    if not group_by:
        return [np.arange(relation.num_rows)]
    cells = []
    for ref in group_by:
        values = relation.column(ref).tolist()
        mask = relation.null_mask(ref)
        nulls = [False] * len(values) if mask is None else mask.tolist()
        cells.append([(True, 0) if null else (False, value)
                      for value, null in zip(values, nulls)])
    groups: dict[tuple, list[int]] = {}
    for row, key in enumerate(zip(*cells)):
        groups.setdefault(key, []).append(row)
    return [np.array(groups[key], dtype=np.intp) for key in sorted(groups)]


def _materialised_keys(relation, ref, firsts) -> np.ndarray:
    """The key column a grouped result holds: each group's first row's
    value, a zero float as ``+0.0``, as ``float64`` with NaN for NULL
    when some group's is NULL."""
    values = relation.column(ref)[firsts]
    if values.dtype.kind == "f":
        values = values + 0.0
    mask = relation.null_mask(ref)
    if mask is None or not mask[firsts].any():
        return values
    return np.where(mask[firsts], np.nan, values)


_WRAPS = ({"a": {"k": [1, 1, None], "x": [2**63 - 1, 5, 7],
                "f": [0.1, None, 0.2]},
          "b": {"k": [1, 1, 1], "x": [-2**63, 2, 2**62 + 1],
                "f": [0.3, 0.7, -1.1]},
          "c": {"k": [], "x": [], "f": []}},
          "SELECT SUM(a.x), AVG(b.x), SUM(b.f) FROM a a, b b WHERE a.k = b.k")


#: Three tables chained on ``k``, duplicates at both levels (``b``'s key
#: 1 twice, ``c``'s keys 1 and 2 twice), grouped by one table's column.
_CHAIN = ({"a": {"k": [1, 1, 2, None, 2], "x": [4, 5, 6, 7, -8],
                 "f": [0.5, None, -0.5, 1.5, 2.5]},
           "b": {"k": [1, 1, 2, 0], "x": [1, None, 3, 4],
                 "f": [0.25, 0.25, None, -1.0]},
           "c": {"k": [2, 1, 2, 1, None], "x": [9, 8, 7, 6, 5],
                 "f": [-0.0, 0.0, 3.0, None, 1.0]}},
          "SELECT c.f, COUNT(*), SUM(c.x), MAX(c.x) FROM a a, b b, c c "
          "WHERE a.k = b.k AND b.k = c.k GROUP BY c.f")


#: A group of both zeros, reached in two orders: a build-side eager fold
#: meets ``b``'s rows in join-key order (0.0 first), the joined rows
#: follow the probe ``a.k = 1, 0`` (-0.0 first).  Storage keeps one
#: zero, so the group key is ``+0.0`` either way.
_SIGNED_ZERO = ({"a": {"k": [1, 0], "x": [1, 2], "f": [1.0, 2.0]},
                 "b": {"k": [1, 0, 0], "x": [3, 4, 5],
                       "f": [-0.0, 0.0, 5.0]},
                 "c": {"k": [], "x": [], "f": []}},
                "SELECT b.f, COUNT(*) FROM a a, b b WHERE a.k = b.k "
                "GROUP BY b.f")


@settings(max_examples=200, deadline=None)
@given(_case(_WIDE_INTS))
@example(_WRAPS)
@example(_CHAIN)
@example(_SIGNED_ZERO)
def test_fused_fold_equals_the_materialised_join(case):
    data, text = case
    database = _database(data)
    query = parse_query(text)
    for arm, plan, executor in _arms(database, query, _HASH_HINTS):
        columns = executor.execute(plan).relation.columns
        actuals = [node.actual_rows for node in walk_plan(plan.root)]
        join = plan.root.children[0]
        relation = Executor(database)._execute_node(join)
        groups = _materialised_groups(relation, query.group_by)
        assert actuals == [len(groups)] + [
            node.actual_rows for node in walk_plan(join)], arm
        firsts = np.array([rows[0] for rows in groups if len(rows)],
                          dtype=np.intp)
        for ref in query.group_by:
            got = columns[str(ref)]
            want = _materialised_keys(relation, ref, firsts)
            assert got.dtype == want.dtype, f"{arm}: {ref} for {text}"
            np.testing.assert_array_equal(got, want,
                                          f"{arm}: {ref} for {text}")
            np.testing.assert_array_equal(np.signbit(got), np.signbit(want),
                                          f"{arm}: {ref}'s sign for {text}")
        for index, aggregate in enumerate(query.aggregates):
            got = columns[f"agg{index}"]
            assert len(got) == len(groups), arm
            exact = aggregate.function in _EXACT
            for rows, value in zip(groups, got.tolist()):
                group = relation.take(rows)
                want = _materialised_fold(group, aggregate)
                assert _close(want, value, _magnitude(group, aggregate),
                              0.0 if exact else 1e-12), \
                    f"{arm}: {aggregate} = {value}, materialised {want} " \
                    f"for {text}"
