"""Result-equivalence property suite for the rewrite phase.

The load-bearing guarantee of the rewrite PR: for every seeded
generator workload query on the synthetic fleet and the IMDB-shaped
holdout,

* executing the plan with rewrites **on** returns the same rows as
  with rewrites **off** (checked on the pre-aggregation pipeline with
  exact multiset equality, and on the final aggregates — exactly for
  COUNT/MIN/MAX/group keys, to float tolerance for SUM/AVG whose
  summation order legitimately differs between plan shapes), and
* ``enable_rewrites=False`` reproduces today's plans **bit-for-bit**
  (subtree signatures, EXPLAIN text and total cost all identical to
  the default planner's).

Every parametrization also runs with each of the merge, closure and
pruning steps knocked out (its module function monkeypatched to change
nothing), so a bug in one step cannot hide behind another step undoing
it.  And the pass leaves nothing for a second one: a rewritten query
rewrites to itself, merging and deriving nothing, and over every
workload each step leaves nothing for itself and is named in the trace
exactly when it changed the query.
"""

import numpy as np
import pytest

from repro.db import SyntheticDatabaseSpec, generate_database
from repro.engine import execute_plan
import repro.optimizer.rewrite
from repro.engine.executor import Executor
from repro.optimizer import Planner, PlannerOptions
from repro.optimizer.rewrite import (
    RewritePlanner,
    _derived_joins,
    merge_conjunction,
)
from repro.plans import plan_signature
from repro.plans.explain import explain_plan
from repro.plans.operators import HashAggregate, PlainAggregate
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
from repro.workload import (
    WorkloadSpec,
    generate_workload,
    make_benchmark_workload,
)

pytestmark = pytest.mark.rewrite

#: Aggregates whose result must match bit-for-bit regardless of the
#: plan shape (order-independent reductions).
_EXACT_AGGREGATES = (AggregateFunction.COUNT, AggregateFunction.MIN,
                     AggregateFunction.MAX)

#: Step name -> (module function, what it returns when knocked out).
KNOCKOUTS = {
    "filter-merge": ("merge_conjunction", None),
    "transitive-joins": ("_derived_joins", ()),
    "projection-pruning": ("_scan_columns", {}),
}

#: Every step, plus each knockout.
CONFIGS = [()] + [(name,) for name in KNOCKOUTS]

STEPS = {"predicate-pushdown", *KNOCKOUTS}

#: Workload id -> (database fixture, ``_workload`` kind).
SOURCES = {
    "synthetic-generator": ("small_synthetic_db", "generator"),
    "second-synthetic-generator": ("second_synthetic_db", "generator"),
    "imdb-benchmarks": ("tiny_imdb", "benchmarks"),
    "imdb-crafted": ("tiny_imdb", "crafted"),
}


def _config_id(disabled):
    return "all-steps" if not disabled else f"without-{disabled[0]}"


@pytest.fixture(scope="module")
def second_synthetic_db():
    spec = SyntheticDatabaseSpec(
        name="synth2", seed=23, num_tables=5, min_rows=200, max_rows=1_500
    )
    return generate_database(spec)


def _crafted_queries():
    """Hand-built IMDB queries covering merge patterns the generator
    never emits (it draws predicates on distinct columns)."""
    t = lambda c: ColumnRef("t", c)  # noqa: E731
    mi = lambda c: ColumnRef("mi", c)  # noqa: E731
    EQ, GT, GEQ = (ComparisonOperator.EQ, ComparisonOperator.GT,
                   ComparisonOperator.GEQ)
    LT, LEQ = ComparisonOperator.LT, ComparisonOperator.LEQ
    BETWEEN, IN = ComparisonOperator.BETWEEN, ComparisonOperator.IN
    star = (TableRef("title", "t"), TableRef("movie_info", "mi"),
            TableRef("movie_keyword", "mk"))
    star_joins = (JoinCondition(mi("movie_id"), t("id")),
                  JoinCondition(ColumnRef("mk", "movie_id"), t("id")))
    return [
        # Stacked ranges + IN on one column -> pruned IN list.
        Query(tables=(TableRef("title", "t"),),
              predicates=(Predicate(t("production_year"), GEQ, 1950),
                          Predicate(t("production_year"), LEQ, 2000),
                          Predicate(t("production_year"), GT, 1960),
                          Predicate(t("production_year"), IN,
                                    (1955, 1965, 1975, 1985, 1995, 2005)))),
        # IN ∩ IN on a categorical column (no range predicates allowed
        # there), grouped aggregate on top.
        Query(tables=(TableRef("title", "t"),),
              predicates=(Predicate(t("kind_id"), IN, (0, 1, 2, 3)),
                          Predicate(t("kind_id"), IN, (1, 2, 3, 4))),
              aggregates=(AggregateSpec(AggregateFunction.AVG, t("rating")),
                          AggregateSpec(AggregateFunction.COUNT)),
              group_by=(t("kind_id"),)),
        # Contradictory conjunction (empty result) must stay empty.
        Query(tables=(TableRef("title", "t"),),
              predicates=(Predicate(t("votes"), GT, 1_000),
                          Predicate(t("votes"), LT, 10))),
        # Star join with transitive closure + merge-worthy stacks.
        Query(tables=star, joins=star_joins,
              predicates=(Predicate(t("production_year"),
                                    BETWEEN, (1930, 2010)),
                          Predicate(t("production_year"), GEQ, 1950),
                          Predicate(mi("info_type_id"), EQ, 2)),
              aggregates=(AggregateSpec(AggregateFunction.COUNT),
                          AggregateSpec(AggregateFunction.MIN, t("votes")),
                          AggregateSpec(AggregateFunction.SUM,
                                        mi("info_value")))),
        # Point interval -> EQ (can unlock index scans on id).
        Query(tables=(TableRef("title", "t"),
                      TableRef("movie_keyword", "mk")),
              joins=(JoinCondition(ColumnRef("mk", "movie_id"), t("id")),),
              predicates=(Predicate(t("id"), GEQ, 11),
                          Predicate(t("id"), LEQ, 11))),
    ]


def _workload(database, kind):
    if kind == "generator":
        spec = WorkloadSpec(num_queries=8, seed=31)
        return generate_workload(database, spec)
    if kind == "benchmarks":
        queries = []
        for name in ("scale", "job-light", "synthetic"):
            queries.extend(make_benchmark_workload(database, name, 4, seed=13))
        return queries
    return _crafted_queries()


def _column_matrix(relation, keys):
    """Rows x columns float matrix with nulls as NaN (for sorting)."""
    columns = []
    for key in keys:
        values = np.asarray(relation.columns[key], dtype=np.float64).copy()
        mask = relation.null_masks.get(key)
        if mask is not None:
            values[mask] = np.nan
        columns.append(values)
    return np.column_stack(columns) if columns else np.empty((0, 0))


def _sorted_rows(matrix):
    if matrix.size == 0:
        return matrix
    return matrix[np.lexsort(matrix.T[::-1])]


def assert_same_row_multiset(baseline, rewritten, label):
    """Exact multiset equality of the pre-aggregation pipelines.

    Projection pruning legitimately drops unreferenced columns, so the
    comparison runs on the rewritten side's columns — which must be a
    subset of the baseline's.
    """
    base_keys = set(baseline.columns)
    rew_keys = set(rewritten.columns)
    assert rew_keys <= base_keys, \
        f"{label}: rewritten plan materialized unknown columns " \
        f"{sorted(rew_keys - base_keys)}"
    assert baseline.num_rows == rewritten.num_rows, \
        f"{label}: row count {baseline.num_rows} != {rewritten.num_rows}"
    keys = sorted(rew_keys)
    base = _sorted_rows(_column_matrix(baseline, keys))
    rew = _sorted_rows(_column_matrix(rewritten, keys))
    np.testing.assert_array_equal(
        base, rew, err_msg=f"{label}: pre-aggregation rows differ")


def assert_same_aggregates(query, baseline, rewritten, label):
    """Final aggregate outputs: exact where order-independent.

    Output rows already align positionally: grouped aggregation emits
    groups in sorted key order (``np.unique``) on both sides, and
    plain aggregation emits a single row.  Aggregate columns are named
    ``agg{i}`` in SELECT-list order, group keys ``table.column``.
    """
    assert sorted(baseline.relation.columns) == \
        sorted(rewritten.relation.columns), f"{label}: output columns differ"
    specs = list(query.aggregates) or [AggregateSpec(AggregateFunction.COUNT)]
    for key in sorted(baseline.relation.columns):
        base = np.asarray(baseline.relation.columns[key])
        rew = np.asarray(rewritten.relation.columns[key])
        if key.startswith("agg"):
            spec = specs[int(key[len("agg"):])]
            exact = spec.function in _EXACT_AGGREGATES
        else:
            exact = True  # group-by key values
        if exact or base.dtype.kind in "iub":
            np.testing.assert_array_equal(
                base, rew, err_msg=f"{label}: aggregate {key} differs")
        else:
            # SUM/AVG fold rows in plan order; different (equivalent)
            # plans may round differently in the last ulps.
            np.testing.assert_allclose(
                base.astype(float), rew.astype(float),
                rtol=1e-9, atol=1e-12, equal_nan=True,
                err_msg=f"{label}: aggregate {key} differs beyond rounding")


def _check_equivalence(database, queries, disabled, monkeypatch):
    for name in disabled:
        function, unchanged = KNOCKOUTS[name]
        monkeypatch.setattr(repro.optimizer.rewrite, function,
                            lambda *args, unchanged=unchanged: unchanged)
    baseline_planner = Planner(database, PlannerOptions())
    rewrite_planner = Planner(database, PlannerOptions(enable_rewrites=True))
    fired = set()
    for index, query in enumerate(queries):
        label = f"query {index}: {query}"
        plan_off = baseline_planner.plan(query)
        plan_on = rewrite_planner.plan(query)
        fired.update(plan_on.metadata["rewrite_trace"].firings)

        # Pre-aggregation pipelines: exact multiset equality.
        pre_off = Executor(database)._execute_node(plan_off.root.children[0])
        pre_on = Executor(database)._execute_node(plan_on.root.children[0])
        assert_same_row_multiset(pre_off, pre_on, label)

        # Full plans (aggregates on top).
        result_off = execute_plan(database, plan_off)
        result_on = execute_plan(database, plan_on)
        assert_same_aggregates(query, result_off, result_on, label)
    return fired


class TestRowIdenticalResults:
    @pytest.mark.parametrize("disabled", CONFIGS, ids=_config_id)
    def test_synthetic_generator_workload(self, small_synthetic_db, disabled,
                                          monkeypatch):
        queries = _workload(small_synthetic_db, "generator")
        _check_equivalence(small_synthetic_db, queries, disabled, monkeypatch)

    @pytest.mark.parametrize("disabled", CONFIGS, ids=_config_id)
    def test_second_synthetic_database(self, second_synthetic_db, disabled,
                                       monkeypatch):
        queries = _workload(second_synthetic_db, "generator")
        _check_equivalence(second_synthetic_db, queries, disabled,
                           monkeypatch)

    @pytest.mark.parametrize("disabled", CONFIGS, ids=_config_id)
    def test_imdb_holdout_benchmarks(self, tiny_imdb, disabled, monkeypatch):
        queries = _workload(tiny_imdb, "benchmarks")
        _check_equivalence(tiny_imdb, queries, disabled, monkeypatch)

    def test_crafted_merge_heavy_queries(self, tiny_imdb, monkeypatch):
        queries = _workload(tiny_imdb, "crafted")
        fired = _check_equivalence(tiny_imdb, queries, (), monkeypatch)
        assert "filter-merge" in fired
        assert "transitive-joins" in fired

    def test_every_step_fires_somewhere(self, tiny_imdb, small_synthetic_db,
                                        monkeypatch):
        """The suite is vacuous for a step that never changes a query."""
        fired = set()
        for database, kind in ((tiny_imdb, "benchmarks"),
                               (tiny_imdb, "crafted"),
                               (small_synthetic_db, "generator")):
            fired |= _check_equivalence(database, _workload(database, kind),
                                        (), monkeypatch)
        assert fired == STEPS


class TestOnePassSuffices:
    """What a second pass would find: nothing to merge or derive."""

    @pytest.mark.parametrize("kind", ["generator", "crafted"])
    def test_rewriting_a_rewritten_query_changes_nothing(
            self, tiny_imdb, small_synthetic_db, kind):
        database = small_synthetic_db if kind == "generator" else tiny_imdb
        rewriter = RewritePlanner()
        fired = set()
        for query in _workload(database, kind):
            once = rewriter.rewrite(query)
            twice = rewriter.rewrite(once.query)
            fired.update(once.trace.firings)
            assert twice.query == once.query
            assert twice.scan_columns == once.scan_columns
            assert "filter-merge" not in twice.trace.firings
            assert "transitive-joins" not in twice.trace.firings
        if kind == "crafted":
            assert {"filter-merge", "transitive-joins"} <= fired

    @pytest.mark.parametrize("step", sorted(STEPS))
    @pytest.mark.parametrize("source", SOURCES)
    def test_each_step_does_its_whole_work_at_once(
            self, request, source, step):
        """Each step's own contract over a whole workload: what it
        leaves holds nothing more for it to do, and it is named in the
        trace exactly when it changed the query."""
        fixture, kind = SOURCES[source]
        database = request.getfixturevalue(fixture)
        check = _STEP_CHECKS[step]
        fired = 0
        for query in _workload(database, kind):
            result = RewritePlanner().rewrite(query)
            check(database, query, result)
            fired += step in result.trace.firings
        if step != "filter-merge" or kind != "generator":
            # The generator draws each predicate on its own column, so
            # it leaves nothing to merge.
            assert fired, f"{step} never fired on {source}"


def _check_pushdown(database, query, result):
    """Predicates grouped per scan in table order, each scan holding
    its own conjunction (merged, or as written)."""
    aliases = [table.name for table in query.tables]
    owners = [p.column.table for p in result.query.predicates]
    assert owners == sorted(owners, key=aliases.index)
    for alias in aliases:
        own = query.predicates_on(alias)
        assert result.query.predicates_on(alias) == \
            (merge_conjunction(own) or own)
    assert ("predicate-pushdown" in result.trace.firings) == \
        bool(query.predicates)


def _check_merge(database, query, result):
    """Every scan's conjunction is merged; the step is named once per
    scan whose conjunction it changed."""
    changed = 0
    for alias in query.table_names:
        assert merge_conjunction(result.query.predicates_on(alias)) is None
        changed += merge_conjunction(query.predicates_on(alias)) is not None
    assert result.trace.firings.count("filter-merge") == changed


def _check_closure(database, query, result):
    """The originals first, then what the closure adds, which leaves
    the column classes as they were and derives nothing more."""
    joins = result.query.joins
    assert joins[:len(query.joins)] == query.joins
    assert join_column_classes(joins) == join_column_classes(query.joins)
    assert _derived_joins(joins) == ()
    assert ("transitive-joins" in result.trace.firings) == \
        (len(joins) > len(query.joins))


def _check_pruning(database, query, result):
    """Each annotated scan of the query keeps sorted, distinct columns
    of its own table that cover every column the rewritten query reads
    of it; a scan left out is read by nothing but ``COUNT(*)``."""
    read: dict[str, set[str]] = {}
    columns = [p.column for p in result.query.predicates]
    columns += [c for join in result.query.joins
                for c in (join.left, join.right)]
    columns += [a.column for a in result.query.aggregates
                if a.column is not None]
    columns += result.query.group_by
    for column in columns:
        read.setdefault(column.table, set()).add(column.column)
    assert set(result.scan_columns) == set(read) <= set(query.table_names)
    for alias, kept in result.scan_columns.items():
        table = database.schema.table(query.table_ref(alias).table_name)
        assert kept == tuple(sorted(set(kept)))
        assert all(table.has_column(column) for column in kept)
        assert set(kept) == read[alias]
    assert ("projection-pruning" in result.trace.firings) == \
        bool(result.scan_columns)


_STEP_CHECKS = {
    "predicate-pushdown": _check_pushdown,
    "filter-merge": _check_merge,
    "transitive-joins": _check_closure,
    "projection-pruning": _check_pruning,
}


class TestRulesOffBitIdentity:
    """``enable_rewrites=False`` must reproduce today's plans exactly."""

    def _assert_identical_plans(self, database, queries):
        default_planner = Planner(database)
        off_planner = Planner(database,
                              PlannerOptions(enable_rewrites=False))
        for query in queries:
            plan_default = default_planner.plan(query)
            plan_off = off_planner.plan(query)
            assert plan_signature(plan_default.root) == \
                plan_signature(plan_off.root)
            assert explain_plan(plan_default) == explain_plan(plan_off)
            assert plan_default.total_cost == plan_off.total_cost
            assert "rewrite_trace" not in plan_off.metadata

    def test_imdb(self, tiny_imdb):
        self._assert_identical_plans(tiny_imdb,
                                     _workload(tiny_imdb, "benchmarks"))

    def test_synthetic(self, small_synthetic_db):
        self._assert_identical_plans(
            small_synthetic_db, _workload(small_synthetic_db, "generator"))

    def test_rewrites_off_is_the_default(self):
        assert PlannerOptions().enable_rewrites is False


class TestRewritePlansStillAggregate:
    def test_aggregate_stays_on_top(self, tiny_imdb):
        planner = Planner(tiny_imdb, PlannerOptions(enable_rewrites=True))
        for query in _workload(tiny_imdb, "crafted"):
            plan = planner.plan(query)
            assert isinstance(plan.root, (HashAggregate, PlainAggregate))


class TestWorkloadLayerIntegration:
    def test_runner_plans_under_its_planner_options(self, tiny_imdb):
        """What ``collect_rewrite`` measures: a runner handed the
        rewrite phase plans every query through it."""
        from repro.workload import WorkloadRunner

        queries = _workload(tiny_imdb, "crafted")[:3]
        runner = WorkloadRunner(
            tiny_imdb, planner_options=PlannerOptions(enable_rewrites=True))
        for record in runner.run(queries):
            assert record.plan.metadata["rewrite_trace"] is not None

    def test_default_shards_are_rewrite_free(self):
        from repro.db import generate_training_database_specs
        from repro.workload.backends import execute_shard, make_corpus_shards

        specs = generate_training_database_specs(1, base_seed=5)
        shards = make_corpus_shards(specs, queries_per_database=2, seed=9)
        execution = execute_shard(shards[0])
        for record in execution.records:
            assert "rewrite_trace" not in record.plan.metadata
