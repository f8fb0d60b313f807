"""The join oracle: generated join / aggregate queries, every join
operator the planner can be pushed into, against stdlib ``sqlite3``.

Second slice of the differential-testing item in ROADMAP.md (the first,
``tests/engine/test_scan_oracle.py``, covers scans).  ``tiny_imdb`` and a
generated four-table database with NULLs go row for row into an
in-memory ``sqlite3`` database; ``generate_workload`` texts (one to five
tables, filters, scalar and grouped aggregates) are planned with
rewrites off and on under each of the plan selector's hint sets — which
between them force hash, nested-loop and index-nested-loop joins —
and every executed result must equal ``sqlite3``'s as a multiset:
``COUNT`` / ``MIN`` / ``MAX`` and group keys exactly, ``SUM`` / ``AVG``
to 1e-9, NULL standing for NaN, a NULL group key included.  A second
arm sends the same plans, in sequence, through one executor with a
shared ``BuildSideCache`` — the path ``WorkloadRunner`` measures — where
a build side's row ids and hash tables outlive the query that produced
them.

Every plan of both arms is also refereed node by node: each node's
``actual_rows`` must equal ``sqlite3``'s count over the node's subtree
(``_miscounted``).  Actual cardinalities are model features and the
simulator's input for every label, and three mechanisms write them
without materialising what they count: the fused aggregate's sum of
matched runs, the build cache's replay and the index nested loop's
inner scan.
"""

import functools
import math
import sqlite3

import pytest
from sqlite_oracle import load_table

from repro.db import SyntheticDatabaseSpec, generate_database
from repro.engine import BuildSideCache, Executor
from repro.errors import OptimizerError
from repro.optimizer import plan_query
from repro.optimizer.learned_planner import _HINT_SETS
from repro.optimizer.planner import PlannerOptions
from repro.plans import (
    HashAggregate,
    HashJoin,
    IndexScan,
    NestedLoopJoin,
    PlainAggregate,
    SeqScan,
)
from repro.sql import AggregateFunction, Query, parse_query, query_to_sql
from repro.workload.generator import WorkloadSpec, generate_workload

pytestmark = pytest.mark.oracle

QUERIES_PER_DATABASE = 40
_EXACT = (AggregateFunction.COUNT, AggregateFunction.MIN,
          AggregateFunction.MAX)


@pytest.fixture(scope="module")
def databases(tiny_imdb):
    generated = generate_database(SyntheticDatabaseSpec(
        name="s1", seed=1, num_tables=4, min_rows=300, max_rows=1500))
    assert any(generated.table_data(table).null_mask(column).any()
               for table in generated.schema.table_names
               for column in generated.schema.table(table).column_names), \
        "the generated database lost its NULLs"
    connections = {}
    for database in (tiny_imdb, generated):
        connection = sqlite3.connect(":memory:")
        for table in database.schema.table_names:
            load_table(connection, database, table)
        connections[database.name] = (database, connection)
    yield connections
    for _, connection in connections.values():
        connection.close()


def _rows(values) -> list[tuple[float, ...]]:
    """Rows as float tuples, NULL as NaN, in an order that ignores how
    they were produced (NaN sorts first)."""
    rows = [tuple(math.nan if value is None else float(value)
                  for value in row) for row in values]
    return sorted(rows, key=lambda row: [
        (not math.isnan(value), value) for value in row])


def _engine_rows(executor, plan) -> list[tuple[float, ...]]:
    columns = executor.execute(plan).relation.columns
    return _rows(zip(*(column.tolist() for column in columns.values())))


def _mismatch(query, expected, answer) -> str | None:
    """Why ``answer`` is not ``expected``, or None when it is."""
    if len(expected) != len(answer):
        return f"{len(answer)} rows, sqlite3 has {len(expected)}"
    exact = [True] * len(query.group_by) + [
        aggregate.function in _EXACT for aggregate in query.aggregates]
    exact = exact or [True]  # a bare COUNT(*)
    for want, got in zip(expected, answer):
        for is_exact, left, right in zip(exact, want, got):
            same = (left == right
                    or (math.isnan(left) and math.isnan(right))
                    or (not is_exact
                        and math.isclose(left, right, rel_tol=1e-9)))
            if not same:
                return f"row {got}, sqlite3 has {want}"
    return None


def _has_null_group(query, truth) -> bool:
    """Whether the true answer has a NULL group key."""
    return any(value is None for row in truth
               for value in row[:len(query.group_by)])


@functools.cache
def _sqlite_count(connection, text: str) -> int:
    return connection.execute(text).fetchone()[0]


def _subtree_sql(node) -> str:
    """``SELECT COUNT(*)`` over the subtree's scans: their tables, their
    filters (an ``IndexScan``'s index predicates and its residual
    filters) and every join condition under ``node``.  An aggregate
    counts the groups that query forms."""
    tables, joins, predicates = [], [], []

    def visit(current) -> None:
        if isinstance(current, SeqScan):
            tables.append(current.table)
            predicates.extend(current.filters)
        elif isinstance(current, IndexScan):
            tables.append(current.table)
            predicates.extend(current.index_predicates
                              + current.residual_filters)
        elif isinstance(current, (HashJoin, NestedLoopJoin)):
            joins.append(current.condition)
        for child in current.children:
            visit(child)

    visit(node)
    text = query_to_sql(Query(tables=tuple(tables), joins=tuple(joins),
                              predicates=tuple(predicates),
                              group_by=getattr(node, "group_by", ())))
    if isinstance(node, (HashAggregate, PlainAggregate)):
        return f"SELECT COUNT(*) FROM ({text.rstrip(';')})"
    return text


def _miscounted(connection, plan) -> list[str]:
    """Every node of an executed plan whose ``actual_rows`` is not
    ``sqlite3``'s count of its subtree (``_subtree_sql``), defined as:

    * a scan or a join: the rows its subtree yields;
    * ``HashBuild``: its child's, the same subtree;
    * an aggregate: its number of groups (a ``PlainAggregate``: one);
    * an index nested loop's inner ``IndexScan``: its join's count, the
      rows all its lookups return — rows x loops, as PostgreSQL's
      ``EXPLAIN ANALYZE`` counts them.
    """
    failures = []

    def visit(node, parent_rows: int | None) -> None:
        if isinstance(node, IndexScan) and node.lookup_column is not None:
            want = parent_rows
        else:
            want = _sqlite_count(connection, _subtree_sql(node))
        if node.actual_rows != want:
            failures.append(f"{node.label()} has actual_rows "
                            f"{node.actual_rows}, sqlite3 counts {want}")
        for child in node.children:
            visit(child, want)

    visit(plan.root, None)
    return failures


def _arms():
    for rewrites in (False, True):
        for hints in _HINT_SETS:
            yield (f"rewrites={rewrites} {hints or 'default'}",
                   PlannerOptions(enable_rewrites=rewrites, **hints))


def _check(database, connection, text: str, truth, operators: set,
           shared: Executor | None = None) -> list[str]:
    """Every arm's answer to ``text`` against ``truth``, sqlite3's rows,
    and every node's ``actual_rows`` against ``_miscounted``.

    Each plan runs through an executor of its own; with ``shared``, a
    second copy of the plan runs through that one as well and must
    answer the same and label every node with the same ``actual_rows``
    (a build-cache hit replays them instead of executing the subtree).
    """
    query = parse_query(text)
    expected = _rows(truth)
    failures = []
    for arm, options in _arms():
        try:
            plan = plan_query(database, query, options)
        except OptimizerError:
            continue  # this hint set admits no plan for the query
        operators.update(type(node) for node in plan.nodes())
        operators.update("index nested loop" for node in plan.nodes()
                         if isinstance(node, NestedLoopJoin)
                         and node.is_index_nested_loop)
        why = _mismatch(query, expected,
                        _engine_rows(Executor(database), plan))
        whys = [why] if why is not None else []
        whys += _miscounted(connection, plan)
        if not whys and shared is not None:
            cached = plan_query(database, query, options)
            why = _mismatch(query, expected, _engine_rows(shared, cached))
            if why is None and [node.actual_rows for node in cached.nodes()] \
                    != [node.actual_rows for node in plan.nodes()]:
                why = "actual_rows differ from the uncached run"
            whys = [why] if why is not None else []
            whys += _miscounted(connection, cached)
            whys = [f"shared build cache: {why}" for why in whys]
        failures += [f"{arm}: {why} for {text}" for why in whys]
    return failures


def _sweep(database, connection, shared: Executor | None = None
           ) -> tuple[set, int]:
    """``_check`` over the generated workload; the operators it met and
    how many of its true answers have a NULL group key."""
    queries = generate_workload(database, WorkloadSpec(
        num_queries=QUERIES_PER_DATABASE, max_tables=5,
        group_by_probability=0.3, seed=29))
    operators: set = set()
    failures, null_groups = [], 0
    for query in queries:
        text = query_to_sql(query)
        truth = connection.execute(text).fetchall()
        null_groups += _has_null_group(query, truth)
        failures += _check(database, connection, text, truth, operators,
                           shared)
    assert any(query.group_by for query in queries)
    assert {len(query.tables) for query in queries} >= {1, 2, 3, 4}
    assert not failures, "\n".join(failures)
    return operators, null_groups


@pytest.mark.parametrize("name", ["imdb", "s1"])
def test_generated_queries_match_sqlite(databases, name):
    operators, null_groups = _sweep(*databases[name])
    # The hint sets did push the planner through every join operator.
    assert operators >= {HashJoin, NestedLoopJoin, "index nested loop"}
    # s1's NULLs reach the answers: some of its texts group on a NULL key.
    assert (null_groups > 0) == (name == "s1")


@pytest.mark.parametrize("name", ["imdb", "s1"])
def test_shared_build_cache_matches_sqlite(databases, name):
    """The path ``WorkloadRunner`` measures: one executor, one
    ``BuildSideCache`` across the whole stream, so many a hash join
    probes a build side (row ids + hash table) some earlier plan left
    behind — and, the cache being smaller than the stream, some rebuild
    one that was evicted."""
    database, connection = databases[name]
    cache = BuildSideCache(64)
    operators, _ = _sweep(database, connection,
                          Executor(database, build_cache=cache))
    assert HashJoin in operators
    assert cache.hits > 0 and cache.evictions > 0


def test_group_by_emits_a_null_group(databases):
    """NULL keys form one group whose key is NULL; they used to group
    under the values stored beneath their mask (91 groups with
    ``20 -> 47`` where ``sqlite3`` has 92 with ``NULL -> 9`` and
    ``20 -> 46``)."""
    database, connection = databases["s1"]
    text = "SELECT t1.c4, COUNT(*) FROM t1 GROUP BY t1.c4"
    assert database.table_data("t1").null_mask("c4").any()
    failures = _check(database, connection, text,
                      connection.execute(text).fetchall(), set())
    assert not failures, "\n".join(failures)
