"""Query representation: AST, SQL rendering, a small SQL parser,
and semantic validation against a schema.

The query class models the paper's workload space: select-project-join
queries over FK join graphs with conjunctive single-column predicates
and up to a few aggregates (optionally grouped).
"""

from repro.sql.ast import (
    AggregateFunction,
    AggregateSpec,
    ColumnRef,
    ComparisonOperator,
    Interval,
    JoinCondition,
    Predicate,
    Query,
    TableRef,
    join_column_classes,
)
from repro.sql.parser import parse_query
from repro.sql.text import query_to_sql
from repro.sql.validate import validate_query

__all__ = [
    "AggregateFunction",
    "AggregateSpec",
    "ColumnRef",
    "ComparisonOperator",
    "Interval",
    "JoinCondition",
    "Predicate",
    "Query",
    "TableRef",
    "join_column_classes",
    "parse_query",
    "query_to_sql",
    "validate_query",
]
