"""Unit tests for the rewrite phase's one pass.

Covers its steps one by one: the predicates grouped per scan, exact
conjunction merging, the transitive closure of the join conditions,
projection pruning, and the trace naming the steps that changed the
query.  That a rewritten query rewrites to itself is checked in
``test_rewrite_equivalence.py`` over whole workloads.
"""

import pytest

import repro.optimizer.rewrite
from repro.errors import PlannerError
from repro.optimizer.rewrite import (
    RewritePlanner,
    RewriteTrace,
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


# ----------------------------------------------------------------------
# The steps of the pass
# ----------------------------------------------------------------------
class TestPredicatePushdown:
    def test_groups_predicates_per_scan_in_table_order(self):
        query = star_query(predicates=(
            Predicate(_col("mi", "info_type_id"), EQ, 3),
            Predicate(_col("t", "production_year"), GEQ, 1950),
            Predicate(_col("mk", "keyword_id"), LT, 9),
            Predicate(_col("t", "kind_id"), NEQ, 2)))
        result = RewritePlanner().rewrite(query)
        assert result.query.predicates == (
            query.predicates_on("t") + query.predicates_on("mi")
            + query.predicates_on("mk"))
        assert result.trace.firings[0] == "predicate-pushdown"

    def test_keeps_each_scans_order(self, monkeypatch):
        # Merging off: SAMPLE_QUERIES[0]'s two ranges on ``t`` would merge.
        monkeypatch.setattr(repro.optimizer.rewrite, "merge_conjunction",
                            lambda predicates: None)
        query = SAMPLE_QUERIES[0]
        result = RewritePlanner().rewrite(query)
        for alias in query.table_names:
            assert result.query.predicates_on(alias) == \
                query.predicates_on(alias)

    def test_no_predicates_no_firing(self):
        result = RewritePlanner().rewrite(star_query())
        assert "predicate-pushdown" not in result.trace.firings

    def test_unknown_alias_raises(self):
        query = star_query(predicates=(
            Predicate(_col("t", "production_year"), GEQ, 1950),
            Predicate(_col("ci", "role_id"), EQ, 1)))
        with pytest.raises(PlannerError, match="'ci'"):
            RewritePlanner().rewrite(query)

    def test_table_name_is_not_an_alias(self):
        # ``t`` scans ``title``; a predicate must name the alias.
        query = star_query(predicates=(
            Predicate(_col("title", "production_year"), GEQ, 1950),))
        with pytest.raises(PlannerError, match="'title'"):
            RewritePlanner().rewrite(query)


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

    def test_a_chain_derives_every_missing_pair_in_column_order(self):
        chain = Query(
            tables=tuple(TableRef(alias) for alias in "abcd"),
            joins=(JoinCondition(_col("a", "k"), _col("b", "k")),
                   JoinCondition(_col("c", "k"), _col("b", "k")),
                   JoinCondition(_col("c", "k"), _col("d", "k"))))
        result = RewritePlanner().rewrite(chain)
        assert result.query.joins[3:] == (
            JoinCondition(_col("a", "k"), _col("c", "k")),
            JoinCondition(_col("a", "k"), _col("d", "k")),
            JoinCondition(_col("b", "k"), _col("d", "k")))

    def test_each_class_closes_on_its_own(self):
        # a.x = b.x = c.x and c.y = d.y = e.y: two classes through ``c``.
        query = Query(
            tables=tuple(TableRef(alias) for alias in "abcde"),
            joins=(JoinCondition(_col("a", "x"), _col("b", "x")),
                   JoinCondition(_col("b", "x"), _col("c", "x")),
                   JoinCondition(_col("c", "y"), _col("d", "y")),
                   JoinCondition(_col("d", "y"), _col("e", "y"))))
        result = RewritePlanner().rewrite(query)
        assert result.query.joins[4:] == (
            JoinCondition(_col("a", "x"), _col("c", "x")),
            JoinCondition(_col("c", "y"), _col("e", "y")))


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

    def test_single_scan_keeps_its_filtered_column(self):
        result = RewritePlanner().rewrite(SAMPLE_QUERIES[2])
        assert result.scan_columns == {"t": ("votes",)}

    def test_derived_joins_read_no_new_column(self, monkeypatch):
        query = SAMPLE_QUERIES[0]
        closed = RewritePlanner().rewrite(query).scan_columns
        monkeypatch.setattr(repro.optimizer.rewrite, "_derived_joins",
                            lambda joins: ())
        assert RewritePlanner().rewrite(query).scan_columns == closed

    @pytest.mark.parametrize("where", ["join", "aggregate", "group-by"])
    def test_only_the_querys_own_aliases_are_annotated(self, where):
        stray = _col("ci", "role_id")
        query = star_query(
            aggregates=(AggregateSpec(AggregateFunction.MAX, stray),)
            if where == "aggregate" else (),
            group_by=(stray,) if where == "group-by" else ())
        if where == "join":
            query = Query(tables=query.tables,
                          joins=query.joins
                          + (JoinCondition(stray, _col("t", "id")),))
        result = RewritePlanner().rewrite(query)
        assert set(result.scan_columns) == {"t", "mi", "mk"}


class TestTrace:
    @pytest.mark.parametrize("index, firings", [
        (0, ("predicate-pushdown", "filter-merge", "transitive-joins",
             "projection-pruning")),
        (1, ("predicate-pushdown", "filter-merge", "transitive-joins",
             "projection-pruning")),
        # One scan: no condition to close over.
        (2, ("predicate-pushdown", "filter-merge", "projection-pruning")),
    ])
    def test_names_what_each_sample_query_needs(self, index, firings):
        assert RewritePlanner().rewrite(SAMPLE_QUERIES[index]).trace \
            == RewriteTrace(firings=firings)

    def test_names_the_steps_in_pass_order(self):
        order = ("predicate-pushdown", "filter-merge", "transitive-joins",
                 "projection-pruning")
        for query in SAMPLE_QUERIES:
            firings = RewritePlanner().rewrite(query).trace.firings
            assert firings, "expected at least one step to fire"
            positions = [order.index(name) for name in firings]
            assert positions == sorted(positions)

    def test_every_step_fires_on_a_sample_query(self):
        fired = {name for query in SAMPLE_QUERIES
                 for name in RewritePlanner().rewrite(query).trace.firings}
        assert fired == {"predicate-pushdown", "filter-merge",
                         "transitive-joins", "projection-pruning"}

    def test_filter_merge_fires_once_per_merged_scan(self):
        query = star_query(predicates=(
            Predicate(_col("t", "votes"), GT, 100),
            Predicate(_col("mi", "info_type_id"), IN, (1, 2)),
            Predicate(_col("t", "votes"), GT, 500),
            Predicate(_col("mi", "info_type_id"), IN, (2, 3)),
            Predicate(_col("mk", "keyword_id"), EQ, 4)))
        firings = RewritePlanner().rewrite(query).trace.firings
        assert firings.count("filter-merge") == 2

    def test_rewrite_is_deterministic(self):
        first = RewritePlanner().rewrite(SAMPLE_QUERIES[0])
        second = RewritePlanner().rewrite(SAMPLE_QUERIES[0])
        assert first.query == second.query
        assert first.scan_columns == second.scan_columns
        assert first.trace == second.trace
