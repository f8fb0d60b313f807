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

Every parametrization also runs with each rule individually knocked out
of ``repro.optimizer.rewrite.RULES`` (monkeypatched), so a bug in one
rule cannot hide behind another rule undoing it.
"""

import numpy as np
import pytest

from repro.db import SyntheticDatabaseSpec, generate_database
from repro.engine import execute_plan
import repro.optimizer.rewrite
from repro.engine.executor import Executor
from repro.optimizer import Planner, PlannerOptions
from repro.optimizer.rewrite import RULES
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

#: rewrites-on, plus each rule knocked out individually.
CONFIGS = [()] + [(rule.name,) for rule in RULES]


def _config_id(disabled):
    return "all-rules" if not disabled else f"without-{disabled[0]}"


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
    monkeypatch.setattr(repro.optimizer.rewrite, "RULES", tuple(
        rule for rule in RULES if rule.name not in disabled))
    baseline_planner = Planner(database, PlannerOptions())
    rewrite_planner = Planner(database, PlannerOptions(enable_rewrites=True))
    fired = set()
    for index, query in enumerate(queries):
        label = f"query {index}: {query}"
        plan_off = baseline_planner.plan(query)
        plan_on = rewrite_planner.plan(query)
        fired.update(plan_on.metadata["rewrite_trace"].firing_counts)

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

    def test_every_rule_fires_somewhere(self, tiny_imdb, small_synthetic_db,
                                        monkeypatch):
        """The suite is vacuous for a rule that never matches."""
        fired = set()
        for database, kind in ((tiny_imdb, "benchmarks"),
                               (tiny_imdb, "crafted"),
                               (small_synthetic_db, "generator")):
            fired |= _check_equivalence(database, _workload(database, kind),
                                        (), monkeypatch)
        assert fired >= {rule.name for rule in RULES}


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
