"""A referee for the planner: exhaustive search against the DP.

``enumerate_join_orders`` keeps one subplan per connected alias set,
the cheapest.  No operator reports an output order and every join
prices its inputs through their cost alone (added, or, for a plain
nested loop, the inner's cost once plus its rescans), so the cheapest
subplan of a set is part of the cheapest plan of every superset and
the DP is exact by construction.  This file checks that claim instead
of trusting it.

Generated acyclic queries of two to four tables are planned with
rewrites off under each of the plan selector's hint sets.  For each,
every plan the planner's operators can express is priced with the same
:class:`~repro.optimizer.cost_model.CostModel` and the same bound
cardinalities: every bushy join tree without a cross product, every
access path per leaf (a sequential scan, an index scan per usable
index), and per join every operator and orientation — hash join either
side building, index nested loop per index on a single-table inner's
join column, plain nested loop either side outer — each join on the
first condition in ``query.joins`` order with one side in each input
(the planner's ``_connecting_join``).  Nothing is pruned: a set's
whole list of plan costs goes into its supersets.  The root join's
``est_cost`` must equal the cheapest of them to 1e-12 relative.

Generated queries of up to four tables never have a bushy plan
strictly cheaper than every linear one (each join with a base table on
one side), so a DP restricted to linear trees would pass that sweep.
A hand-built five-table snowflake, whose two dimension chains each end
in a selectively filtered far table, is where joining the two filtered
chains as composites wins: there the referee also prices the linear
plans alone, and some draws must have a bushy plan strictly cheaper.
"""

import itertools

import numpy as np
import pytest

from repro.db import (
    Database,
    DataType,
    Schema,
    SyntheticDatabaseSpec,
    TableData,
    generate_database,
    make_imdb_database,
)
from repro.db.schema import Column, ForeignKey, Table
from repro.errors import OptimizerError
from repro.optimizer.cost_model import CPU_TUPLE_COST
from repro.optimizer.learned_planner import _HINT_SETS
from repro.optimizer.planner import Planner, PlannerOptions
from repro.plans import HashJoin, IndexScan, NestedLoopJoin, SeqScan
from repro.sql.ast import (
    AggregateFunction,
    AggregateSpec,
    ColumnRef,
    ComparisonOperator,
    JoinCondition,
    Predicate,
    Query,
    TableRef,
)
from repro.workload.generator import WorkloadSpec, generate_workload

pytestmark = pytest.mark.oracle

QUERIES_PER_DATABASE = 200


def _index_every_column(database):
    """A hypothetical index on every column that has none: each filter
    gains an index scan and each join an index nested loop to price."""
    for table in database.schema.table_names:
        for column in database.schema.table(table).column_names:
            if not database.indexes_on(table, column):
                database.create_hypothetical_index(
                    f"referee_{table}_{column}", table, column)
    return database


@pytest.fixture(scope="module")
def databases(tiny_imdb):
    return {
        "imdb": tiny_imdb,
        "imdb-indexed": _index_every_column(
            make_imdb_database(scale=0.04, seed=7)),
        "s1-indexed": _index_every_column(generate_database(
            SyntheticDatabaseSpec(name="s1", seed=1, num_tables=4,
                                  min_rows=300, max_rows=1500))),
    }


class _Referee:
    """Every plan of one query under one set of options, priced."""

    def __init__(self, planner: Planner, query):
        self.database = planner.database
        self.options = planner.options
        self.cost_model = planner.cost_model
        self.query = query
        self.cards = planner.estimator.bind(query)

    def _indexes(self, alias):
        return self.database.indexes_on(
            self.cards.table_ref(alias).table_name)

    def _rows(self, aliases: frozenset) -> float:
        if len(aliases) == 1:
            return self.cards.scan_rows(next(iter(aliases)))
        return self.cards.joined_rows(aliases)

    def _scan_costs(self, alias) -> list[float]:
        table_name = self.cards.table_ref(alias).table_name
        predicates = self.cards.predicates_on(alias)
        costs = []
        if self.options.enable_seqscan or not self._indexes(alias):
            costs.append(self.cost_model.seq_scan_cost(
                table_name, self.cards.scan_rows(alias), len(predicates)))
        if self.options.enable_indexscan:
            for index in self._indexes(alias):
                on_index = [p for p in predicates
                            if p.column.column == index.column_name
                            and p.interval() is not None]
                if not on_index:
                    continue
                selectivity = 1.0
                for predicate in on_index:
                    selectivity *= self.cards.predicate_selectivity(predicate)
                matched = max(self.cards.table_rows(alias) * selectivity, 1.0)
                costs.append(self.cost_model.index_scan_cost(
                    index, matched, table_name,
                    len(predicates) - len(on_index)))
        return costs

    def _condition(self, left: frozenset, right: frozenset):
        for join in self.query.joins:
            a, b = join.left.table, join.right.table
            if (a in left and b in right) or (a in right and b in left):
                return join
        return None

    def _join_costs(self, left, left_costs, right, right_costs):
        """Every operator and orientation over every pair of input
        plans: the costs, flattened."""
        condition = self._condition(left, right)
        if condition is None:
            return np.empty(0)
        model = self.cost_model
        out_rows = self._rows(left | right)
        sides = ((left, left_costs, right, right_costs),
                 (right, right_costs, left, left_costs))
        parts = []
        if self.options.enable_hashjoin:
            for probe, probe_costs, build, build_costs in sides:
                build_rows = self._rows(build)
                build_cost = build_costs + model.hash_build_cost(build_rows)
                increment = model.hash_join_cost(
                    build_rows, self._rows(probe), out_rows)
                parts.append(probe_costs[:, None] + build_cost[None, :]
                             + increment)
        if self.options.enable_nestloop:
            for outer, outer_costs, inner, inner_costs in sides:
                if len(inner) == 1 and self.options.enable_indexscan:
                    parts.append(self._index_nested_loops(
                        condition, outer, outer_costs, inner, out_rows))
                increment = model.nested_loop_cost(
                    self._rows(outer), self._rows(inner), inner_costs,
                    out_rows)
                parts.append(outer_costs[:, None] + increment[None, :])
        return np.concatenate([part.ravel() for part in parts]) if parts \
            else np.empty(0)

    def _index_nested_loops(self, condition, outer, outer_costs, inner,
                            out_rows):
        inner_alias = next(iter(inner))
        column = condition.side_for(inner_alias).column
        table_name = self.cards.table_ref(inner_alias).table_name
        residual = max(self.cards.scan_selectivity(inner_alias), 1e-7)
        costs = [outer_costs + self.cost_model.index_nested_loop_cost(
                     self._rows(outer), index, out_rows / residual,
                     table_name) + out_rows * CPU_TUPLE_COST
                 for index in self._indexes(inner_alias)
                 if index.column_name == column]
        return np.concatenate(costs) if costs else np.empty(0)

    def plan_costs(self, linear: bool = False) -> np.ndarray:
        """The cost of every plan over all of the query's tables; with
        ``linear``, of every linear plan (each join has a base table on
        one side)."""
        aliases = self.query.table_names
        costs = {frozenset({alias}): np.asarray(self._scan_costs(alias))
                 for alias in aliases}
        for size in range(2, len(aliases) + 1):
            for subset in map(frozenset,
                              itertools.combinations(aliases, size)):
                found = []
                for left_size in range(1, size):
                    for left in map(frozenset, itertools.combinations(
                            sorted(subset), left_size)):
                        right = subset - left
                        if min(left) > min(right):
                            continue  # each unordered split once
                        if linear and min(left_size, size - left_size) > 1:
                            continue
                        if left in costs and right in costs:
                            found.append(self._join_costs(
                                left, costs[left], right, costs[right]))
                found = [part for part in found if len(part)]
                if found:
                    costs[subset] = np.concatenate(found)
        return costs.get(frozenset(aliases), np.empty(0))


def _queries(database):
    queries = generate_workload(database, WorkloadSpec(
        num_queries=QUERIES_PER_DATABASE, max_tables=4, seed=29))
    return [query for query in queries if len(query.tables) > 1]


DATABASES = ["imdb", "imdb-indexed", "s1-indexed"]


def _arm_id(hints: dict) -> str:
    return ",".join(f"no-{option.removeprefix('enable_')}"
                    for option, value in hints.items() if not value) \
        or "default"


def _referee(planner: Planner, queries):
    """Plan each query and price all of its plans: the number compared,
    the failures (the DP's plan dearer than the cheapest), and the
    operators of the DP's plans."""
    winners, compared, failures = set(), 0, []
    for query in queries:
        costs = _Referee(planner, query).plan_costs()
        try:
            plan = planner.plan(query)
        except OptimizerError:
            assert len(costs) == 0, f"{query} has plans"
            continue
        root_join = plan.root.children[0]
        cheapest = float(costs.min())
        compared += 1
        winners.update(type(node) for node in plan.nodes())
        winners.update("index nested loop" for node in plan.nodes()
                       if isinstance(node, NestedLoopJoin)
                       and node.is_index_nested_loop)
        if abs(root_join.est_cost - cheapest) > 1e-12 * cheapest:
            failures.append(
                f"{query}: the DP's plan costs {root_join.est_cost!r}, "
                f"the cheapest of {len(costs)} plans {cheapest!r}")
    return compared, failures, winners


@pytest.mark.parametrize("hints", _HINT_SETS, ids=_arm_id)
@pytest.mark.parametrize("name", DATABASES)
def test_dp_finds_the_cheapest_plan_of_the_exhaustive_search(databases,
                                                             name, hints):
    database = databases[name]
    queries = _queries(database)
    assert {len(query.tables) for query in queries} == {2, 3, 4}
    compared, failures, _ = _referee(
        Planner(database, PlannerOptions(**hints)), queries)
    assert not failures, "\n".join(failures)
    assert compared == len(queries)


@pytest.mark.parametrize("name", DATABASES)
def test_the_hint_sets_make_each_operator_win(databases, name):
    """The sweep over all hint sets is not vacuous: every operator the
    referee prices is the DP's choice somewhere."""
    database = databases[name]
    queries = _queries(database)
    winners = set()
    for hints in _HINT_SETS:
        winners |= _referee(
            Planner(database, PlannerOptions(**hints)), queries)[2]
    assert winners >= {HashJoin, NestedLoopJoin, "index nested loop",
                       SeqScan, IndexScan}


# ----------------------------------------------------------------------
# The bushy half: a snowflake whose filtered chains join as composites
# ----------------------------------------------------------------------
#: table -> (rows, the tables it references).  No index: every leaf is
#: a sequential scan, which bounds the plan count.
SNOWFLAKE = {
    "fact": (20_000, ("dim_a", "dim_b")),
    "dim_a": (2_000, ("far_a",)),
    "dim_b": (2_000, ("far_b",)),
    "far_a": (500, ()),
    "far_b": (500, ()),
}
SNOWFLAKE_DRAWS = 30


@pytest.fixture(scope="module")
def snowflake():
    rng = np.random.default_rng(53)
    tables, data = [], {}
    for name, (rows, parents) in SNOWFLAKE.items():
        table = Table(name, (Column("id", DataType.INTEGER),
                             Column("val", DataType.INTEGER))
                      + tuple(Column(f"{parent}_id", DataType.INTEGER)
                              for parent in parents), primary_key="id")
        columns = {"id": np.arange(rows, dtype=np.int64),
                   "val": rng.integers(0, 100, rows)}
        for parent in parents:
            columns[f"{parent}_id"] = rng.integers(
                0, SNOWFLAKE[parent][0], rows)
        tables.append(table)
        data[name] = TableData(table, columns)
    schema = Schema.from_tables("snowflake", tables, [
        ForeignKey(child, f"{parent}_id", parent, "id")
        for child, (_, parents) in SNOWFLAKE.items() for parent in parents])
    database = Database.from_tables("snowflake", schema, data)
    database.analyze()
    return database


def _snowflake_queries():
    """All five tables; on each far table ``val`` below 1 or 2 (1-2 %
    of its rows), sometimes a filter of 10-90 % on the fact table or a
    dimension too."""
    rng = np.random.default_rng(59)
    joins = tuple(
        JoinCondition(ColumnRef(child, f"{parent}_id"),
                      ColumnRef(parent, "id"))
        for child, (_, parents) in SNOWFLAKE.items() for parent in parents)
    queries = []
    for _ in range(SNOWFLAKE_DRAWS):
        predicates = [
            Predicate(ColumnRef(far, "val"), ComparisonOperator.LT,
                      int(rng.integers(1, 3)))
            for far in ("far_a", "far_b")]
        for name in ("fact", "dim_a", "dim_b"):
            if rng.random() < 0.3:
                predicates.append(Predicate(
                    ColumnRef(name, "val"), ComparisonOperator.LT,
                    int(rng.integers(10, 91))))
        queries.append(Query(
            tables=tuple(TableRef(name, name) for name in SNOWFLAKE),
            joins=joins, predicates=tuple(predicates),
            aggregates=(AggregateSpec(AggregateFunction.COUNT),)))
    return queries


@pytest.mark.parametrize("hints", _HINT_SETS, ids=_arm_id)
def test_dp_finds_the_cheapest_bushy_plan(snowflake, hints):
    queries = _snowflake_queries()
    compared, failures, _ = _referee(
        Planner(snowflake, PlannerOptions(**hints)), queries)
    assert not failures, "\n".join(failures)
    assert compared == len(queries)


def test_some_bushy_plan_beats_every_linear_one(snowflake):
    """The referee sees the bushy half: on some draws the cheapest plan
    is strictly cheaper than the cheapest linear plan, so a DP that
    built linear trees only would fail the test above."""
    planner = Planner(snowflake)
    bushy_wins = 0
    for query in _snowflake_queries():
        referee = _Referee(planner, query)
        cheapest = float(referee.plan_costs().min())
        cheapest_linear = float(referee.plan_costs(linear=True).min())
        assert cheapest <= cheapest_linear
        bushy_wins += cheapest < cheapest_linear * (1 - 1e-9)
    assert bushy_wins > 0
