"""The vocabulary the three featurizers share.

The zero-shot graph encoding and the MSCN / E2E baselines differ in
*what identifies* a table or a column (physical characteristics versus
per-database one-hots), not in how a plan or a predicate is read: which
operator kinds exist and in which one-hot order, which predicates a
scan evaluates, how a column is named, how a literal is normalized and
what a runtime label must satisfy are decided here, once.
"""

from __future__ import annotations

import math

import numpy as np

from repro.db.database import Database
from repro.errors import FeaturizationError
from repro.plans.operators import (
    HashAggregate,
    HashBuild,
    HashJoin,
    IndexScan,
    NestedLoopJoin,
    PlainAggregate,
    PlanNode,
    SeqScan,
)
from repro.sql.ast import ComparisonOperator, Predicate, Query

__all__ = [
    "COMPARISON_INDEX",
    "OPERATOR_INDEX",
    "OPERATOR_KINDS",
    "check_runtime_label",
    "column_key",
    "normalized_literal",
    "scan_predicates",
]

#: Physical operator classes, in one-hot order.
OPERATOR_KINDS = (
    SeqScan, IndexScan, HashBuild, HashJoin, NestedLoopJoin, HashAggregate,
    PlainAggregate,
)
OPERATOR_INDEX = {cls.__name__: i for i, cls in enumerate(OPERATOR_KINDS)}

#: Comparison operators, in one-hot order.
COMPARISON_INDEX = {op: i for i, op in enumerate(ComparisonOperator)}


def scan_predicates(node: PlanNode) -> tuple[Predicate, ...]:
    """Every predicate a scan evaluates — through its index or on the
    fetched tuples; empty for operators that are not scans."""
    if isinstance(node, SeqScan):
        return node.filters
    if isinstance(node, IndexScan):
        return node.index_predicates + node.residual_filters
    return ()


def column_key(query: Query, predicate: Predicate) -> str:
    """``table.column`` of the predicate's column, alias resolved."""
    table_name = query.table_ref(predicate.column.table).table_name
    return f"{table_name}.{predicate.column.column}"


def normalized_literal(database: Database, query: Query,
                       predicate: Predicate) -> float:
    """Min-max normalize the literal (mean of bounds for BETWEEN/IN)."""
    table_name = query.table_ref(predicate.column.table).table_name
    stats = database.table_statistics(table_name) \
        .column(predicate.column.column)
    if isinstance(predicate.value, tuple):
        raw = float(np.mean(predicate.value))
    else:
        raw = float(predicate.value)
    low = stats.min_value if stats.min_value is not None else 0.0
    high = stats.max_value if stats.max_value is not None else 1.0
    if high <= low:
        return 0.5
    return float(np.clip((raw - low) / (high - low), 0.0, 1.0))


def check_runtime_label(seconds: float) -> None:
    """A runtime label is logged, so it must be positive and finite: a
    NaN or infinite label would make every standardized target NaN."""
    if not (0 < seconds < math.inf):
        raise FeaturizationError(
            f"runtime label must be positive and finite, got {seconds}")
