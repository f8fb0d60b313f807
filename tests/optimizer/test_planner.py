"""Planner: plan validity, operator selection, estimates, what-if."""

from collections import Counter
from dataclasses import dataclass, field, replace

import pytest

from repro.engine import execute_plan
from repro.errors import OptimizerError, PlanError, QueryError
from repro.optimizer import plan_query, selectivity
from repro.optimizer.cardinality import BoundCardinalities, CardinalityEstimator
from repro.optimizer.join_order import connected_subsets, enumerate_join_orders
from repro.optimizer.learned_planner import candidate_plans
from repro.optimizer.planner import Planner, PlannerOptions
from repro.optimizer.whatif import IndexSpec, WhatIfPlanner
from repro.plans import (
    HashBuild,
    HashJoin,
    IndexScan,
    NestedLoopJoin,
    PhysicalPlan,
    PlainAggregate,
    SeqScan,
    plan_signature,
    walk_plan,
)
from repro.sql import parse_query
from repro.sql.ast import ColumnRef, JoinCondition, TableRef
from repro.workload.generator import WorkloadSpec, generate_workload


def q(text):
    return parse_query(text)


class TestSingleTablePlans:
    def test_seq_scan_plan(self, tiny_imdb):
        plan = plan_query(tiny_imdb, q("SELECT COUNT(*) FROM title t"))
        assert isinstance(plan.root, PlainAggregate)
        assert isinstance(plan.root.children[0], SeqScan)
        assert plan.total_cost > 0

    def test_index_scan_chosen_for_selective_pk_lookup(self, tiny_imdb):
        plan = plan_query(tiny_imdb,
                          q("SELECT COUNT(*) FROM title t WHERE t.id = 5"))
        scan = plan.root.children[0]
        assert isinstance(scan, IndexScan)
        assert scan.index_name == "title_pkey"

    def test_seq_scan_chosen_for_unselective_predicate(self, tiny_imdb):
        plan = plan_query(
            tiny_imdb, q("SELECT COUNT(*) FROM title t WHERE t.id >= 0"))
        assert isinstance(plan.root.children[0], SeqScan)

    def test_estimates_annotated_everywhere(self, tiny_imdb):
        plan = plan_query(
            tiny_imdb,
            q("SELECT COUNT(*) FROM title t WHERE t.production_year > 2000"),
        )
        for node in plan.nodes():
            assert node.est_rows >= 1.0 or isinstance(node, PlainAggregate)
            assert node.est_width > 0

    def test_group_by_plan(self, tiny_imdb):
        plan = plan_query(
            tiny_imdb,
            q("SELECT t.kind_id, COUNT(*) FROM title t GROUP BY t.kind_id"),
        )
        assert plan.root.operator_name == "HashAggregate"
        result = execute_plan(tiny_imdb, plan)
        assert plan.root.actual_rows <= 6  # kind_id has 6 categories
        del result


class TestJoinPlans:
    def test_two_way_join_correct(self, tiny_imdb):
        plan = plan_query(tiny_imdb, q(
            "SELECT COUNT(*) FROM title t, movie_companies mc "
            "WHERE t.id = mc.movie_id"
        ))
        result = execute_plan(tiny_imdb, plan)
        assert result.scalar() == tiny_imdb.num_rows("movie_companies")

    def test_five_way_join_plans_and_executes(self, tiny_imdb):
        plan = plan_query(tiny_imdb, q(
            "SELECT COUNT(*) FROM title t, movie_companies mc, movie_info mi, "
            "movie_keyword mk, cast_info ci "
            "WHERE t.id = mc.movie_id AND t.id = mi.movie_id "
            "AND t.id = mk.movie_id AND t.id = ci.movie_id "
            "AND t.production_year > 2010 AND mc.company_type_id = 1"
        ))
        result = execute_plan(tiny_imdb, plan)
        assert result.scalar() >= 0
        join_ops = [n for n in plan.nodes()
                    if isinstance(n, (HashJoin, NestedLoopJoin))]
        assert len(join_ops) == 4

    def test_join_order_independent_of_result(self, tiny_imdb):
        """All join strategies must agree on the query result."""
        text = ("SELECT COUNT(*) FROM title t, cast_info ci "
                "WHERE t.id = ci.movie_id AND t.production_year > 2005")
        results = set()
        for options in [
            PlannerOptions(enable_hashjoin=False),
            PlannerOptions(enable_nestloop=False),
        ]:
            plan = plan_query(tiny_imdb, q(text), options)
            results.add(execute_plan(tiny_imdb, plan).scalar())
        assert len(results) == 1

    def test_cross_product_rejected(self, tiny_imdb):
        with pytest.raises(QueryError):
            plan_query(tiny_imdb, q(
                "SELECT COUNT(*) FROM title t, movie_companies mc"
            ))

    def test_all_scans_disabled(self, tiny_imdb):
        options = PlannerOptions(enable_seqscan=False, enable_indexscan=False)
        with pytest.raises(OptimizerError):
            plan_query(tiny_imdb, q(
                "SELECT COUNT(*) FROM title t WHERE t.production_year > 2000"
            ), options)

    def test_estimation_error_grows_with_correlation(self, tiny_imdb):
        """Estimated cardinalities deviate from actuals under the injected
        year<->votes correlation (conjunctive predicates)."""
        plan = plan_query(tiny_imdb, q(
            "SELECT COUNT(*) FROM title t "
            "WHERE t.production_year > 2010 AND t.votes > 1000"
        ))
        execute_plan(tiny_imdb, plan)
        scan = plan.root.children[0]
        actual = max(scan.actual_rows, 1)
        qerr = max(scan.est_rows / actual, actual / scan.est_rows)
        assert qerr > 1.05  # the independence assumption is visibly wrong


class TestJoinEnumeration:
    def test_connected_subsets_of_chain(self, tiny_imdb):
        query = q("SELECT COUNT(*) FROM title t, movie_companies mc, "
                  "cast_info ci WHERE t.id = mc.movie_id AND t.id = ci.movie_id")
        subsets = connected_subsets(query)
        # star around t: {t},{mc},{ci},{t,mc},{t,ci},{t,mc,ci} (not {mc,ci})
        assert len(subsets) == 6
        assert frozenset({"mc", "ci"}) not in subsets

    def test_enumeration_visits_all_tables(self, tiny_imdb):
        query = q("SELECT COUNT(*) FROM title t, movie_companies mc "
                  "WHERE t.id = mc.movie_id")
        best = enumerate_join_orders(
            query,
            leaf_factory=lambda alias: (frozenset({alias}), 0.0),
            combine=lambda l, r: (l[0] | r[0], l[1] + r[1] + 1.0),
            better=lambda a, b: a[1] < b[1],
        )
        assert best[0] == frozenset({"t", "mc"})


class TestWhatIf:
    def test_hypothetical_index_changes_plan(self, tiny_imdb):
        planner = WhatIfPlanner(tiny_imdb)
        text = ("SELECT COUNT(*) FROM title t "
                "WHERE t.votes > 2000000 AND t.production_year > 2000")
        baseline = planner.plan_without_indexes(q(text))
        whatif = planner.plan_with_indexes(q(text), [IndexSpec("title", "votes")])
        assert isinstance(baseline.root.children[0], SeqScan)
        scan = whatif.root.children[0]
        assert isinstance(scan, IndexScan)
        assert scan.index_column == "votes"
        assert tiny_imdb.indexes.get(scan.index_name) is None, \
            "the what-if index outlived its plan"
        assert scan.index_name == IndexSpec("title", "votes").default_name

    def test_hypothetical_indexes_cleaned_up(self, tiny_imdb):
        planner = WhatIfPlanner(tiny_imdb)
        before = set(tiny_imdb.indexes)
        planner.plan_with_indexes(
            q("SELECT COUNT(*) FROM title t WHERE t.votes > 100000"),
            [IndexSpec("title", "votes")],
        )
        assert set(tiny_imdb.indexes) == before

    def test_whatif_cost_cheaper_for_selective_query(self, tiny_imdb):
        planner = WhatIfPlanner(tiny_imdb)
        text = "SELECT COUNT(*) FROM title t WHERE t.votes > 2000000"
        baseline = planner.plan_without_indexes(q(text))
        whatif = planner.plan_with_indexes(q(text),
                                           [IndexSpec("title", "votes")])
        assert whatif.total_cost < baseline.total_cost


class TestCardinalityEstimator:
    def test_fk_join_cardinality(self, tiny_imdb):
        query = q("SELECT COUNT(*) FROM title t, movie_companies mc "
                  "WHERE t.id = mc.movie_id")
        estimator = CardinalityEstimator(tiny_imdb)
        estimated = estimator.bind(query).joined_rows(frozenset({"t", "mc"}))
        actual = tiny_imdb.num_rows("movie_companies")
        assert estimated == pytest.approx(actual, rel=0.4)

    def test_unknown_alias_rejected(self, tiny_imdb):
        query = q("SELECT COUNT(*) FROM title t")
        estimator = CardinalityEstimator(tiny_imdb)
        with pytest.raises(OptimizerError):
            estimator.bind(query).joined_rows(frozenset({"ghost"}))

    def test_scan_rows_at_least_one(self, tiny_imdb):
        query = q("SELECT COUNT(*) FROM title t WHERE t.production_year = 1800")
        estimator = CardinalityEstimator(tiny_imdb)
        assert estimator.bind(query).scan_rows("t") >= 1.0


class TestPlanStructure:
    def test_all_plans_validate(self, tiny_imdb):
        texts = [
            "SELECT COUNT(*) FROM title t WHERE t.id < 100",
            "SELECT MIN(t.rating), MAX(t.votes) FROM title t, movie_info mi "
            "WHERE t.id = mi.movie_id AND mi.info_type_id = 3",
            "SELECT COUNT(*) FROM title t, movie_keyword mk, cast_info ci "
            "WHERE t.id = mk.movie_id AND t.id = ci.movie_id "
            "AND t.production_year > 2000 AND ci.role_id IN (1, 2)",
        ]
        for text in texts:
            plan = plan_query(tiny_imdb, q(text))
            assert isinstance(plan, PhysicalPlan)
            assert all(node is not None for node in walk_plan(plan.root))
            execute_plan(tiny_imdb, plan)
            plan.require_executed()

    def test_repeated_node_object_rejected(self):
        """A plan is a tree: the executor's ``actual_rows`` and the
        simulator's ``node_seconds[id(node)]`` have one slot per node
        object, so one object in two places must not construct."""
        scan = SeqScan(table=TableRef("title", "t"))
        key = ColumnRef("t", "id")
        join = HashJoin(condition=JoinCondition(key, key),
                        children=[scan, HashBuild(key=key, children=[scan])])
        with pytest.raises(PlanError, match="occurs twice"):
            PhysicalPlan(root=join, query=q("SELECT COUNT(*) FROM title t"),
                         database_name="imdb")

    def test_plans_share_no_node_object(self, tiny_imdb):
        """DP entries are shared between *candidates*, never between
        finished plans: executing one plan must not annotate another."""
        # ``t.id = 5``: selective enough that the hint sets yield more
        # than the default plan (three candidates on ``tiny_imdb``).
        query = q("SELECT COUNT(*) FROM title t, movie_keyword mk, "
                  "cast_info ci WHERE t.id = mk.movie_id "
                  "AND t.id = ci.movie_id AND t.id = 5")
        planner = Planner(tiny_imdb)
        portfolio = candidate_plans(tiny_imdb, query)
        assert len(portfolio) >= 2
        plans = [planner.plan(query), planner.plan(query), *portfolio]
        node_ids = [id(node) for plan in plans for node in plan.nodes()]
        assert len(set(node_ids)) == len(node_ids)
        execute_plan(tiny_imdb, plans[0])
        assert all(node.actual_rows is None
                   for plan in plans[1:] for node in plan.nodes())

    def test_signature_is_structure_not_annotation(self, tiny_imdb):
        text = "SELECT COUNT(*) FROM title t WHERE t.production_year > {}"
        plan, same, other = (plan_query(tiny_imdb, q(text.format(year)))
                             for year in (2000, 2000, 2001))
        execute_plan(tiny_imdb, same)
        for node in same.nodes():
            node.est_rows, node.est_width, node.est_cost = 7.0, 7.0, 7.0
        assert plan_signature(plan.root) == plan_signature(same.root)
        # Same operators, same filter *count*: only the literal differs.
        assert [n.label() for n in plan.nodes()] == \
            [n.label() for n in other.nodes()]
        assert plan_signature(plan.root) != plan_signature(other.root)


# ----------------------------------------------------------------------
# The planner's work, counted (not timed)
# ----------------------------------------------------------------------
class _CountingCardinalities(BoundCardinalities):
    def __init__(self, database, query, asked):
        super().__init__(database, query)
        self._asked = asked

    def joined_rows(self, aliases):
        self._asked.append(aliases)
        return super().joined_rows(aliases)


@dataclass
class CountingEstimator(CardinalityEstimator):
    """Records every alias set a plan search asks ``joined_rows`` for."""

    asked: list = field(default_factory=list)

    def bind(self, query):
        return _CountingCardinalities(self.database, query, self.asked)


def _plan_facts(plan):
    return (plan_signature(plan.root),
            [(n.est_rows, n.est_cost, n.est_width) for n in plan.nodes()])


class TestPlannerWork:
    """One ``plan()`` computes each fact about its query once, and
    keeps none of them: the guard behind the ``serve_cold`` numbers."""

    @pytest.fixture(scope="class")
    def five_table_queries(self, tiny_imdb):
        generated = generate_workload(tiny_imdb, WorkloadSpec(
            num_queries=80, max_tables=5, seed=19))
        queries = [query for query in generated
                   if len(query.tables) == 5 and query.predicates]
        assert len(queries) >= 5
        return queries

    @pytest.fixture()
    def priced(self, monkeypatch):
        """Every predicate handed to ``estimate_predicate_selectivity``."""
        priced = []
        original = selectivity.estimate_predicate_selectivity

        def counting(stats, predicate):
            priced.append(predicate)
            return original(stats, predicate)

        monkeypatch.setattr(selectivity, "estimate_predicate_selectivity",
                            counting)
        return priced

    def test_each_fact_computed_once_per_plan_call(
            self, tiny_imdb, five_table_queries, priced):
        estimator = CountingEstimator(tiny_imdb)
        planner = Planner(tiny_imdb, cardinality_estimator=estimator)
        for query in five_table_queries:
            counts = []
            for _ in range(2):
                priced.clear()
                estimator.asked.clear()
                planner.plan(query)
                assert max(Counter(priced).values()) == 1, \
                    "a predicate's selectivity was computed twice"
                assert set(priced) <= set(query.predicates)
                joins = [aliases for aliases in connected_subsets(query)
                         if len(aliases) >= 2]
                # Once per DP mask, not once per split of it.
                assert sorted(map(sorted, estimator.asked)) == \
                    sorted(map(sorted, joins))
                counts.append((len(priced), len(estimator.asked)))
            # Nothing outlives the call: the second one starts over.
            assert counts[0] == counts[1] and counts[0][0] > 0

    def test_planner_keeps_no_query_state(self, tiny_imdb,
                                          five_table_queries):
        for rewrites in (False, True):
            planner = Planner(tiny_imdb,
                              PlannerOptions(enable_rewrites=rewrites))
            before = dict(vars(planner))
            for query in five_table_queries[:3]:
                planner.plan(query)
            after = dict(vars(planner))
            assert after.keys() == before.keys()
            assert all(after[name] is before[name] for name in before)

    def test_hypothetical_index_between_calls_is_seen(self, tiny_imdb):
        """What-if planning creates and drops indexes between ``plan()``
        calls; one long-lived planner must follow exactly as fresh ones
        do."""
        query = q("SELECT COUNT(*) FROM title t, movie_keyword mk "
                  "WHERE t.id = mk.movie_id AND t.votes > 2000000")
        planner = Planner(tiny_imdb)
        without = _plan_facts(planner.plan(query))
        assert without == _plan_facts(Planner(tiny_imdb).plan(query))
        tiny_imdb.create_hypothetical_index("hypo_votes", "title", "votes")
        try:
            with_index = _plan_facts(planner.plan(query))
            assert with_index == _plan_facts(Planner(tiny_imdb).plan(query))
        finally:
            tiny_imdb.drop_index("hypo_votes")
        assert with_index != without
        assert _plan_facts(planner.plan(query)) == without

    def test_rewrites_on_then_off_leaves_no_projection(self, tiny_imdb):
        query = q("SELECT COUNT(*) FROM title t, movie_keyword mk "
                  "WHERE t.id = mk.movie_id AND t.production_year > 2000")
        planner = Planner(tiny_imdb, PlannerOptions(enable_rewrites=True))
        pruned = planner.plan(query)
        assert any(getattr(node, "projection", None) is not None
                   for node in pruned.nodes())
        planner.options = replace(planner.options, enable_rewrites=False)
        plain = planner.plan(query)
        assert all(getattr(node, "projection", None) is None
                   for node in plain.nodes())
        assert _plan_facts(plain) == _plan_facts(Planner(tiny_imdb).plan(query))
        assert "rewrite_trace" not in plain.metadata
