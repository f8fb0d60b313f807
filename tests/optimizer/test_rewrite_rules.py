"""Unit and fixpoint/termination tests for the rewrite phase.

Covers the contracts of the rewrite phase:

* rule conformance: every rule of ``RULES`` stops firing on its own
  output (match → transform → no-refire),
* the adversarial always-fires stub trips the firing cap and raises
  :class:`PlannerError` with the partial :class:`RewriteTrace` attached,
* the individual rules' semantics (pushdown partitioning, exact filter
  merging, transitive closure, projection pruning).

A test that runs a subset of the rules, or an extra one, monkeypatches
``repro.optimizer.rewrite.RULES`` (and ``MAX_RULE_FIRINGS``).
"""

import pytest

import repro.optimizer.rewrite
from repro.errors import PlannerError
from repro.optimizer import Planner, PlannerOptions
from repro.optimizer.rewrite import (
    RULES,
    FilterMergeRule,
    LogicalFilter,
    LogicalScan,
    PredicatePushdownRule,
    RewriteContext,
    RewritePlanner,
    build_logical_plan,
    count_logical_nodes,
    find_logical_nodes,
    merge_conjunction,
    walk_logical,
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

EQ, NEQ = ComparisonOperator.EQ, ComparisonOperator.NEQ
LT, LEQ = ComparisonOperator.LT, ComparisonOperator.LEQ
GT, GEQ = ComparisonOperator.GT, ComparisonOperator.GEQ
BETWEEN, IN = ComparisonOperator.BETWEEN, ComparisonOperator.IN


def _col(alias, column):
    return ColumnRef(alias, column)


def star_query(predicates=(), aggregates=(), group_by=()):
    """title ⋈ movie_info ⋈ movie_keyword (shared parent ``title``)."""
    return Query(
        tables=(TableRef("title", "t"), TableRef("movie_info", "mi"),
                TableRef("movie_keyword", "mk")),
        joins=(JoinCondition(_col("mi", "movie_id"), _col("t", "id")),
               JoinCondition(_col("mk", "movie_id"), _col("t", "id"))),
        predicates=tuple(predicates),
        aggregates=tuple(aggregates),
        group_by=tuple(group_by),
    )


SAMPLE_QUERIES = [
    star_query(
        predicates=(Predicate(_col("t", "production_year"), GEQ, 1950),
                    Predicate(_col("t", "production_year"), LEQ, 2000),
                    Predicate(_col("mi", "info_type_id"), EQ, 3)),
        aggregates=(AggregateSpec(AggregateFunction.COUNT),),
    ),
    star_query(
        predicates=(Predicate(_col("t", "kind_id"), IN, (1, 2, 3)),
                    Predicate(_col("t", "kind_id"), IN, (2, 3, 4))),
        aggregates=(AggregateSpec(AggregateFunction.AVG,
                                  _col("t", "rating")),),
        group_by=(_col("t", "kind_id"),),
    ),
    Query(tables=(TableRef("title", "t"),),
          predicates=(Predicate(_col("t", "votes"), GT, 100),
                      Predicate(_col("t", "votes"), GT, 500))),
]


#: Rule name → rule, for the rules of the rewrite phase.
RULES_BY_NAME = {rule.name: rule for rule in RULES}


# ----------------------------------------------------------------------
# Rule conformance: no rule refires on its own output
# ----------------------------------------------------------------------
class TestRuleConformance:
    @pytest.mark.parametrize("rule_name", RULES_BY_NAME)
    @pytest.mark.parametrize("query_index", range(len(SAMPLE_QUERIES)))
    def test_rule_reaches_own_fixpoint(self, rule_name, query_index):
        query = SAMPLE_QUERIES[query_index]
        rule = RULES_BY_NAME[rule_name]
        context = RewriteContext(query=query)
        root = build_logical_plan(query)
        for _ in range(32):
            result = rule.apply(root, context)
            if result is None:
                return  # fixpoint reached
            assert result is not root, \
                f"{rule_name} returned its input instead of None"
            root = result
        pytest.fail(f"{rule_name} did not stop firing on its own output")

    @pytest.mark.parametrize("rule_name", RULES_BY_NAME)
    def test_rules_fire_somewhere(self, rule_name):
        """Every rule matches at least one sample query."""
        rule = RULES_BY_NAME[rule_name]
        fired = False
        for query in SAMPLE_QUERIES:
            root = build_logical_plan(query)
            context = RewriteContext(query=query)
            # Pushdown first: merge and pruning act on pushed trees too.
            if rule_name != "predicate-pushdown":
                pre = RULES_BY_NAME["predicate-pushdown"]
                while (moved := pre.apply(root, context)) is not None:
                    root = moved
            if rule.apply(root, context) is not None:
                fired = True
        assert fired, f"{rule_name} never matched a sample query"


# ----------------------------------------------------------------------
# Termination: the adversarial always-fires stub trips the cap
# ----------------------------------------------------------------------
class _AlwaysFires:
    """Wraps the tree in an empty filter, forever."""

    name = "always-fires"
    description = "adversarial stub: grows the tree on every application"

    def apply(self, root, context):
        return LogicalFilter(predicates=(), children=(root,))


class _FiresNTimes(_AlwaysFires):
    """Wraps the tree in an empty filter, ``fires`` times in all."""

    name = "fires-n-times"

    def __init__(self, fires):
        self.fires = fires

    def apply(self, root, context):
        if self.fires == 0:
            return None
        self.fires -= 1
        return super().apply(root, context)


class TestTermination:
    def test_iteration_cap_raises_with_trace(self, monkeypatch):
        monkeypatch.setattr(repro.optimizer.rewrite, "RULES",
                            RULES + (_AlwaysFires(),))
        monkeypatch.setattr(repro.optimizer.rewrite, "MAX_RULE_FIRINGS", 12)
        with pytest.raises(PlannerError) as excinfo:
            RewritePlanner().rewrite(SAMPLE_QUERIES[0])
        error = excinfo.value
        assert "always-fires" in str(error)
        trace = error.trace
        assert trace is not None, "PlannerError must carry the RewriteTrace"
        assert trace.truncated
        assert "always-fires" in trace.firing_counts
        assert len(trace.firings) == 12
        # The stub grows the tree by one node per firing.
        growth = [f for f in trace.firings if f.rule == "always-fires"]
        assert all(f.nodes_after == f.nodes_before + 1 for f in growth)

    @pytest.mark.parametrize("fires, raises", [(5, False), (6, True)],
                             ids=["at-the-cap", "one-over-the-cap"])
    def test_the_cap_admits_exactly_max_rule_firings(self, fires, raises,
                                                     monkeypatch):
        monkeypatch.setattr(repro.optimizer.rewrite, "RULES",
                            (_FiresNTimes(fires),))
        monkeypatch.setattr(repro.optimizer.rewrite, "MAX_RULE_FIRINGS", 5)
        if raises:
            with pytest.raises(PlannerError) as excinfo:
                RewritePlanner().rewrite(SAMPLE_QUERIES[2])
            trace = excinfo.value.trace
            assert trace.truncated
        else:
            trace = RewritePlanner().rewrite(SAMPLE_QUERIES[2]).trace
            assert not trace.truncated
        assert trace.firing_counts == {"fires-n-times": 5}

    def test_rules_run_in_tuple_order_within_a_pass(self):
        names = tuple(rule.name for rule in RULES)
        # Pushdown before merge, pruning last (see ``RULES``).
        assert names == ("predicate-pushdown", "filter-merge",
                         "transitive-joins", "projection-pruning")
        for query in SAMPLE_QUERIES:
            trace = RewritePlanner().rewrite(query).trace
            first_pass = [names.index(firing.rule)
                          for firing in trace.firings if firing.iteration == 1]
            assert first_pass == sorted(first_pass)

    def test_rule_names_are_distinct(self):
        """Traces count firings by rule name."""
        assert len({rule.name for rule in RULES}) == len(RULES)

    def test_builtin_rules_converge_quickly(self):
        planner = RewritePlanner()
        for query in SAMPLE_QUERIES:
            result = planner.rewrite(query)
            assert not result.trace.truncated
            assert len(result.trace.firings) < 16

    def test_an_empty_rule_set_rewrites_nothing(self, tiny_imdb,
                                                monkeypatch):
        monkeypatch.setattr(repro.optimizer.rewrite, "RULES", ())
        planner = Planner(tiny_imdb, PlannerOptions(enable_rewrites=True))
        plan = planner.plan(SAMPLE_QUERIES[0])
        trace = plan.metadata["rewrite_trace"]
        assert trace.firings == ()
        # Un-pushed predicates get force-pushed at lowering.
        assert trace.notes


# ----------------------------------------------------------------------
# Individual rule semantics
# ----------------------------------------------------------------------
class TestPredicatePushdown:
    def test_pushes_into_the_owning_scan(self, monkeypatch):
        query = SAMPLE_QUERIES[0]
        monkeypatch.setattr(repro.optimizer.rewrite, "RULES",
                            (PredicatePushdownRule(),))
        result = RewritePlanner().rewrite(query)
        assert not find_logical_nodes(result.logical_plan, LogicalFilter)
        scans = {s.alias: s
                 for s in find_logical_nodes(result.logical_plan, LogicalScan)}
        assert len(scans["t"].predicates) == 2
        assert len(scans["mi"].predicates) == 1
        assert scans["mk"].predicates == ()
        # The flat query puts predicates back in table order.
        assert result.query.predicates_on("t") == query.predicates_on("t")


class TestFilterMerge:
    def merge(self, *predicates):
        return merge_conjunction(tuple(predicates))

    def c(self):
        return _col("t", "votes")

    def test_range_intersection_to_between(self):
        merged = self.merge(Predicate(self.c(), GEQ, 10),
                            Predicate(self.c(), LEQ, 90),
                            Predicate(self.c(), GEQ, 30))
        assert merged == (Predicate(self.c(), BETWEEN, (30, 90)),)

    def test_point_interval_becomes_eq(self):
        merged = self.merge(Predicate(self.c(), GEQ, 7),
                            Predicate(self.c(), LEQ, 7))
        assert merged == (Predicate(self.c(), EQ, 7),)

    def test_exclusive_bounds_stay_separate(self):
        inputs = (Predicate(self.c(), GT, 2), Predicate(self.c(), LEQ, 9))
        assert self.merge(*inputs) is None  # already canonical

    def test_in_intersection_and_range_restriction(self):
        merged = self.merge(Predicate(self.c(), IN, (1, 5, 9, 12)),
                            Predicate(self.c(), IN, (5, 9, 12, 20)),
                            Predicate(self.c(), LT, 12))
        assert merged == (Predicate(self.c(), IN, (5, 9)),)

    def test_singleton_in_becomes_eq(self):
        merged = self.merge(Predicate(self.c(), IN, (3, 4)),
                            Predicate(self.c(), IN, (4, 7)))
        assert merged == (Predicate(self.c(), EQ, 4),)

    def test_eq_absorbs_consistent_ranges(self):
        merged = self.merge(Predicate(self.c(), EQ, 5),
                            Predicate(self.c(), LEQ, 9),
                            Predicate(self.c(), IN, (4, 5, 6)))
        assert merged == (Predicate(self.c(), EQ, 5),)

    def test_contradictions_kept_verbatim(self):
        contradictory = (Predicate(self.c(), EQ, 1),
                         Predicate(self.c(), EQ, 2))
        assert self.merge(*contradictory) is None
        empty_range = (Predicate(self.c(), GT, 9), Predicate(self.c(), LT, 2))
        assert self.merge(*empty_range) is None

    def test_exact_duplicates_deduped_and_neq_passes_through(self):
        merged = self.merge(Predicate(self.c(), NEQ, 3),
                            Predicate(self.c(), NEQ, 3),
                            Predicate(self.c(), NEQ, 4))
        assert merged == (Predicate(self.c(), NEQ, 3),
                          Predicate(self.c(), NEQ, 4))

    def test_merge_is_idempotent(self):
        merged = self.merge(Predicate(self.c(), GEQ, 10),
                            Predicate(self.c(), LEQ, 90))
        assert merge_conjunction(merged) is None

    def test_collapses_stacked_filters(self):
        scan = LogicalScan(alias="t", table_name="title")
        inner = LogicalFilter(
            predicates=(Predicate(self.c(), GEQ, 10),), children=(scan,))
        outer = LogicalFilter(
            predicates=(Predicate(self.c(), LEQ, 90),), children=(inner,))
        rule = FilterMergeRule()
        context = RewriteContext(query=SAMPLE_QUERIES[2])
        result = rule.apply(outer, context)
        assert isinstance(result, LogicalFilter)
        assert isinstance(result.children[0], LogicalScan)
        assert len(result.predicates) == 2


class TestTransitiveJoins:
    def test_derives_the_missing_edge(self):
        query = star_query()
        result = RewritePlanner().rewrite(query)
        derived = set(result.query.joins) - set(query.joins)
        assert derived == {
            JoinCondition(_col("mi", "movie_id"), _col("mk", "movie_id"))
        }
        # Originals come first, so the planner's first connecting
        # condition is an original one.
        assert result.query.joins[:2] == query.joins

    def test_no_self_edges_within_one_alias(self):
        query = Query(
            tables=(TableRef("title", "t"), TableRef("movie_info", "mi")),
            joins=(JoinCondition(_col("mi", "movie_id"), _col("t", "id")),),
        )
        result = RewritePlanner().rewrite(query)
        assert result.query.joins == query.joins

    def test_join_column_classes_groups_chained_columns(self):
        joins = (JoinCondition(_col("a", "x"), _col("b", "y")),
                 JoinCondition(_col("b", "y"), _col("c", "z")),
                 JoinCondition(_col("d", "w"), _col("e", "v")))
        classes = join_column_classes(joins)
        assert len(classes) == 2
        sizes = sorted(len(group) for group in classes)
        assert sizes == [2, 3]


class TestProjectionPruning:
    def test_scans_keep_only_referenced_columns(self):
        query = SAMPLE_QUERIES[0]
        result = RewritePlanner().rewrite(query)
        assert result.scan_columns["t"] == ("id", "production_year")
        assert result.scan_columns["mi"] == ("info_type_id", "movie_id")
        assert result.scan_columns["mk"] == ("movie_id",)

    def test_count_star_single_table_keeps_all_columns(self):
        query = Query(tables=(TableRef("title", "t"),),
                      aggregates=(AggregateSpec(AggregateFunction.COUNT),))
        result = RewritePlanner().rewrite(query)
        assert result.scan_columns == {}

    def test_group_by_and_aggregate_columns_survive(self):
        query = star_query(
            aggregates=(AggregateSpec(AggregateFunction.SUM,
                                      _col("mi", "info_value")),),
            group_by=(_col("t", "kind_id"),),
        )
        result = RewritePlanner().rewrite(query)
        assert "kind_id" in result.scan_columns["t"]
        assert "info_value" in result.scan_columns["mi"]


class TestTraceAndLowering:
    def test_trace_records_order_and_node_counts(self):
        result = RewritePlanner().rewrite(SAMPLE_QUERIES[0])
        trace = result.trace
        assert trace.nodes_before == count_logical_nodes(
            build_logical_plan(SAMPLE_QUERIES[0]))
        assert trace.nodes_after == count_logical_nodes(result.logical_plan)
        names = [firing.rule for firing in trace.firings]
        assert names, "expected at least one firing"
        # Application order follows the order of RULES within a pass.
        assert names[0] == "predicate-pushdown"
        assert set(trace.firing_counts) == set(names)

    def test_lowering_is_deterministic(self):
        first = RewritePlanner().rewrite(SAMPLE_QUERIES[0])
        second = RewritePlanner().rewrite(SAMPLE_QUERIES[0])
        assert first.query == second.query
        assert first.scan_columns == second.scan_columns
        assert first.trace == second.trace

    def test_logical_tree_walk(self):
        root = build_logical_plan(SAMPLE_QUERIES[0])
        kinds = [node.operator_name for node in walk_logical(root)]
        assert kinds[0] == "LogicalAggregate"
        assert kinds.count("LogicalScan") == 3
