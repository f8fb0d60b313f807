"""Query AST, SQL rendering, parser round-trips, validation."""

import pytest

from repro.errors import ParseError, QueryError
from repro.optimizer import PlannerOptions, plan_query
from repro.sql import (
    AggregateFunction,
    AggregateSpec,
    ColumnRef,
    ComparisonOperator,
    JoinCondition,
    Predicate,
    Query,
    TableRef,
    parse_query,
    query_to_sql,
    validate_query,
)
from repro.workload import WorkloadSpec, generate_workload


def simple_query():
    return Query(
        tables=(TableRef("title", "t"), TableRef("movie_companies", "mc")),
        joins=(JoinCondition(ColumnRef("t", "id"), ColumnRef("mc", "movie_id")),),
        predicates=(
            Predicate(ColumnRef("t", "production_year"),
                      ComparisonOperator.GT, 1990.0),
            Predicate(ColumnRef("mc", "company_type_id"),
                      ComparisonOperator.EQ, 2.0),
        ),
        aggregates=(AggregateSpec(AggregateFunction.MIN,
                                  ColumnRef("t", "production_year")),),
    )


class TestAst:
    def test_duplicate_aliases_rejected(self):
        with pytest.raises(QueryError):
            Query(tables=(TableRef("a"), TableRef("a")))

    def test_empty_tables_rejected(self):
        with pytest.raises(QueryError):
            Query(tables=())

    def test_between_validation(self):
        with pytest.raises(QueryError):
            Predicate(ColumnRef("t", "x"), ComparisonOperator.BETWEEN, 5.0)
        with pytest.raises(QueryError):
            Predicate(ColumnRef("t", "x"), ComparisonOperator.BETWEEN, (5.0, 1.0))

    def test_in_validation(self):
        with pytest.raises(QueryError):
            Predicate(ColumnRef("t", "x"), ComparisonOperator.IN, ())

    def test_scalar_op_rejects_tuple(self):
        with pytest.raises(QueryError):
            Predicate(ColumnRef("t", "x"), ComparisonOperator.EQ, (1.0, 2.0))

    def test_count_star_allowed(self):
        spec = AggregateSpec(AggregateFunction.COUNT)
        assert spec.column is None

    def test_other_aggregates_need_column(self):
        with pytest.raises(QueryError):
            AggregateSpec(AggregateFunction.MIN)

    def test_join_condition_sides(self):
        join = JoinCondition(ColumnRef("a", "x"), ColumnRef("b", "y"))
        assert join.other_side("a") == ColumnRef("b", "y")
        assert join.side_for("b") == ColumnRef("b", "y")
        with pytest.raises(QueryError):
            join.other_side("c")

    def test_predicates_on(self):
        query = simple_query()
        assert len(query.predicates_on("t")) == 1
        assert len(query.predicates_on("mc")) == 1
        assert query.predicates_on("ghost") == ()


class TestSqlText:
    def test_example_query_from_paper(self):
        """The rendering of Figure 2's example query."""
        sql = query_to_sql(simple_query())
        assert sql.startswith("SELECT MIN(t.production_year) FROM title t, "
                              "movie_companies mc WHERE")
        assert "t.id = mc.movie_id" in sql
        assert "t.production_year > 1990" in sql
        assert "mc.company_type_id = 2" in sql

    def test_count_star_default(self):
        sql = query_to_sql(Query(tables=(TableRef("title"),)))
        assert sql == "SELECT COUNT(*) FROM title;"

    def test_between_and_in(self):
        query = Query(
            tables=(TableRef("title", "t"),),
            predicates=(
                Predicate(ColumnRef("t", "y"), ComparisonOperator.BETWEEN,
                          (1.0, 9.0)),
                Predicate(ColumnRef("t", "k"), ComparisonOperator.IN,
                          (1.0, 2.0, 3.0)),
            ),
        )
        sql = query_to_sql(query)
        assert "t.y BETWEEN 1 AND 9" in sql
        assert "t.k IN (1, 2, 3)" in sql


class TestParser:
    def test_roundtrip_simple(self):
        original = simple_query()
        parsed = parse_query(query_to_sql(original))
        assert parsed == original

    def test_paper_example_text(self):
        sql = ("SELECT MIN(t.production_year) FROM movie_companies mc, title t "
               "WHERE t.id = mc.movie_id AND t.production_year > 1990 "
               "AND mc.company_type_id = 2;")
        query = parse_query(sql)
        assert len(query.joins) == 1
        assert len(query.predicates) == 2
        assert query.aggregates[0].function is AggregateFunction.MIN

    def test_count_star(self):
        query = parse_query("SELECT COUNT(*) FROM title")
        assert query.aggregates[0].function is AggregateFunction.COUNT
        assert query.aggregates[0].column is None

    def test_group_by(self):
        query = parse_query(
            "SELECT t.kind_id, COUNT(*) FROM title t GROUP BY t.kind_id"
        )
        assert query.group_by == (ColumnRef("t", "kind_id"),)

    def test_between_and_in(self):
        query = parse_query(
            "SELECT COUNT(*) FROM title t WHERE t.y BETWEEN 1 AND 5 "
            "AND t.k IN (3, 4)"
        )
        ops = {p.operator for p in query.predicates}
        assert ops == {ComparisonOperator.BETWEEN, ComparisonOperator.IN}

    def test_float_and_negative_literals(self):
        query = parse_query("SELECT COUNT(*) FROM t x WHERE x.a >= -1.5")
        assert query.predicates[0].value == -1.5

    def test_neq_variants(self):
        for op_text in ("<>", "!="):
            query = parse_query(f"SELECT COUNT(*) FROM t x WHERE x.a {op_text} 3")
            assert query.predicates[0].operator is ComparisonOperator.NEQ

    @pytest.mark.parametrize("bad", [
        "SELECT FROM t",
        "COUNT(*) FROM t",
        "SELECT COUNT(*) FROM",
        "SELECT COUNT(*) FROM t WHERE",
        "SELECT COUNT(*) FROM t x WHERE x.a ==",
        "SELECT MIN(*) FROM t",
        "SELECT COUNT(*) FROM t x WHERE x.a BETWEEN 1",
        "SELECT COUNT(*) FROM t x WHERE x.a IN ()",
        "SELECT COUNT(*) FROM t; garbage",
        "SELECT t.a, COUNT(*) FROM t",
    ])
    def test_parse_errors(self, bad):
        with pytest.raises(ParseError):
            parse_query(bad)

    def test_column_join_must_be_equality(self):
        with pytest.raises(ParseError):
            parse_query("SELECT COUNT(*) FROM a x, b y WHERE x.id < y.id")

    @pytest.mark.parametrize("tail", [" ", "\t", "\n", ";\n", " ;  \r\n"])
    def test_trailing_whitespace_ends_the_input(self, tail):
        """SQL read from a file ends in a newline; it used to raise
        ``unexpected character`` at the first trailing blank (and, served,
        fail every request of its batch)."""
        for sql in ("SELECT COUNT(*) FROM title",
                    "SELECT t.kind_id, COUNT(*) FROM title t "
                    "WHERE t.production_year > 1990 GROUP BY t.kind_id"):
            assert parse_query(sql + tail) == parse_query(sql)

    def test_generated_texts_with_a_newline_round_trip(self, tiny_imdb):
        queries = generate_workload(tiny_imdb,
                                    WorkloadSpec(num_queries=60, seed=3))
        for query in queries:
            assert parse_query(query_to_sql(query) + "\n") == query

    @pytest.mark.parametrize("sql, position, shown", [
        ("SELECT COUNT(*) FROM title t WHERE t.id @ 3", 40, "'@ 3'"),
        ("SELECT COUNT(*) FROM title t WHERE t.id = 3 #\n", 44, r"'#\n'"),
        ("SELECT COUNT(*) FROM title t WHERE t.id = -", 42, "'-'"),
    ])
    def test_a_bad_character_raises_with_its_position(self, sql, position,
                                                      shown):
        """The position is the bad character's, not the blank before it."""
        with pytest.raises(ParseError) as excinfo:
            parse_query(sql)
        assert str(excinfo.value) == (
            f"unexpected character at position {position}: {shown}")


class TestValidation:
    def test_valid_query(self, tiny_imdb):
        query = simple_query()
        validate_query(tiny_imdb.schema, query)  # should not raise

    def test_unknown_table(self, tiny_imdb):
        query = Query(tables=(TableRef("ghost"),))
        with pytest.raises(QueryError):
            validate_query(tiny_imdb.schema, query)

    def test_unknown_column(self, tiny_imdb):
        query = Query(
            tables=(TableRef("title", "t"),),
            predicates=(Predicate(ColumnRef("t", "ghost"),
                                  ComparisonOperator.EQ, 1.0),),
        )
        with pytest.raises(QueryError):
            validate_query(tiny_imdb.schema, query)

    def test_range_on_categorical_rejected(self, tiny_imdb):
        query = Query(
            tables=(TableRef("title", "t"),),
            predicates=(Predicate(ColumnRef("t", "kind_id"),
                                  ComparisonOperator.GT, 1.0),),
        )
        with pytest.raises(QueryError):
            validate_query(tiny_imdb.schema, query)

    def test_disconnected_join_graph(self, tiny_imdb):
        query = Query(tables=(TableRef("title", "t"),
                              TableRef("cast_info", "ci")))
        with pytest.raises(QueryError, match="not connected"):
            validate_query(tiny_imdb.schema, query)

    def test_cyclic_join_graph(self, tiny_imdb):
        """Connected, but three joins over three tables is not a tree."""
        query = Query(
            tables=(TableRef("title", "t"), TableRef("cast_info", "ci"),
                    TableRef("movie_info", "mi")),
            joins=(JoinCondition(ColumnRef("t", "id"),
                                 ColumnRef("ci", "movie_id")),
                   JoinCondition(ColumnRef("t", "id"),
                                 ColumnRef("mi", "movie_id")),
                   JoinCondition(ColumnRef("ci", "movie_id"),
                                 ColumnRef("mi", "movie_id"))),
        )
        with pytest.raises(QueryError, match="must be a tree"):
            validate_query(tiny_imdb.schema, query)

    def test_tree_with_a_disconnected_table(self, tiny_imdb):
        """Two joins over three tables, yet one table is unreachable
        (a parallel edge uses up the join count)."""
        query = Query(
            tables=(TableRef("title", "t"), TableRef("cast_info", "ci"),
                    TableRef("movie_info", "mi")),
            joins=(JoinCondition(ColumnRef("t", "id"),
                                 ColumnRef("ci", "movie_id")),
                   JoinCondition(ColumnRef("ci", "movie_id"),
                                 ColumnRef("t", "id"))),
        )
        with pytest.raises(QueryError, match="not connected"):
            validate_query(tiny_imdb.schema, query)

    @pytest.mark.parametrize("enable_rewrites", [False, True])
    @pytest.mark.parametrize("text", [
        "SELECT COUNT(*) FROM title t WHERE t.votes = t.production_year",
        "SELECT COUNT(*) FROM title t, cast_info ci "
        "WHERE t.id = ci.movie_id AND t.votes = t.production_year",
    ], ids=["one-table", "two-table"])
    def test_column_to_column_comparison_rejected(self, tiny_imdb, text,
                                                  enable_rewrites):
        """``t.a = t.b`` parses into a join condition of one alias, which no
        plan applies: it is rejected by name, before the join-graph shape
        (with a second table it would otherwise read "must be a tree")."""
        query = parse_query(text)
        message = "t.votes = t.production_year compares columns of one"
        with pytest.raises(QueryError, match=message):
            validate_query(tiny_imdb.schema, query)
        with pytest.raises(QueryError, match=message):
            plan_query(tiny_imdb, query,
                       PlannerOptions(enable_rewrites=enable_rewrites))

    def test_join_type_mismatch(self, tiny_imdb):
        query = Query(
            tables=(TableRef("title", "t"), TableRef("cast_info", "ci")),
            joins=(JoinCondition(ColumnRef("t", "rating"),
                                 ColumnRef("ci", "movie_id")),),
        )
        with pytest.raises(QueryError):
            validate_query(tiny_imdb.schema, query)
