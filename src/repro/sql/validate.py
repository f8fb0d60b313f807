"""Semantic validation of queries against a schema.

Checks that every referenced table/column exists, every equi-join
condition joins two table aliases (a comparison of two columns of one
alias is a filter no plan evaluates, so it is rejected), the join graph
is connected and acyclic (the optimizer's DP enumerator assumes tree
queries, as does the paper's workload generator), and predicate value
types match column types.
"""

from __future__ import annotations

from repro.db.schema import Schema
from repro.db.types import DataType
from repro.errors import QueryError
from repro.sql.ast import ColumnRef, ComparisonOperator, Query

__all__ = ["validate_query"]


def _check_column(schema: Schema, query: Query, ref: ColumnRef) -> None:
    table_ref = query.table_ref(ref.table)  # raises for unknown alias
    table = schema.table(table_ref.table_name)
    if not table.has_column(ref.column):
        raise QueryError(
            f"table {table_ref.table_name!r} has no column {ref.column!r}"
        )


def validate_query(schema: Schema, query: Query) -> None:
    """Raise :class:`~repro.errors.QueryError` if the query is invalid."""
    for table_ref in query.tables:
        if not schema.has_table(table_ref.table_name):
            raise QueryError(f"unknown table {table_ref.table_name!r}")

    for join in query.joins:
        _check_column(schema, query, join.left)
        _check_column(schema, query, join.right)
        if join.left.table == join.right.table:
            # Not a join but a column-to-column filter, which no plan
            # evaluates: reject it rather than drop it.
            raise QueryError(
                f"condition {join} compares columns of one table alias "
                f"({join.left.table!r}); only joins of two aliases and "
                "column-to-constant filters are supported"
            )
        left_type = schema.table(query.table_ref(join.left.table).table_name) \
            .column(join.left.column).data_type
        right_type = schema.table(query.table_ref(join.right.table).table_name) \
            .column(join.right.column).data_type
        if left_type != right_type:
            raise QueryError(f"join {join} has mismatched column types")

    for predicate in query.predicates:
        _check_column(schema, query, predicate.column)
        column_type = schema.table(
            query.table_ref(predicate.column.table).table_name
        ).column(predicate.column.column).data_type
        if predicate.operator.is_range and column_type is DataType.CATEGORICAL:
            raise QueryError(
                f"range predicate {predicate} on a categorical column"
            )
        if predicate.operator is ComparisonOperator.IN and not predicate.value:
            raise QueryError(f"empty IN list in {predicate}")

    for column in query.group_by:
        _check_column(schema, query, column)
    for aggregate in query.aggregates:
        if aggregate.column is not None:
            _check_column(schema, query, aggregate.column)

    # Join-graph shape: connected and acyclic over the query's tables.
    if len(query.tables) > 1:
        neighbours: dict[str, set[str]] = {
            name: set() for name in query.table_names}
        for join in query.joins:
            neighbours[join.left.table].add(join.right.table)
            neighbours[join.right.table].add(join.left.table)
        reached: set[str] = set()
        frontier = [query.table_names[0]]
        while frontier:
            alias = frontier.pop()
            if alias not in reached:
                reached.add(alias)
                frontier.extend(neighbours[alias] - reached)
        if len(reached) < len(neighbours):
            raise QueryError("query join graph is not connected (cross product)")
        if len(query.joins) != len(query.tables) - 1:
            raise QueryError(
                "query join graph must be a tree "
                f"({len(query.joins)} joins over {len(query.tables)} tables)"
            )
