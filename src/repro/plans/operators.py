"""Physical plan operators.

Every node records:

* ``est_rows`` / ``est_width`` — the optimizer's estimates,
* ``actual_rows`` — filled by the executor (EXPLAIN ANALYZE style),
* ``actual_ms`` — the executor's inclusive wall time of the node, a
  measurement only: no featurizer, simulator, signature or equality
  reads it (``None`` until executed, and for a subtree replayed from a
  build-side cache),
* ``est_cost`` — cumulative optimizer cost (used by the
  Scaled-Optimizer-Cost baseline).

The zero-shot featurization reads *only* operator types, cardinalities,
widths and the referenced schema objects — never database-specific
identities — which is what makes the representation transferable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import PlanError
from repro.sql.ast import (
    AggregateSpec,
    ColumnRef,
    JoinCondition,
    Predicate,
    TableRef,
)

__all__ = [
    "PlanNode",
    "SeqScan",
    "IndexScan",
    "HashBuild",
    "HashJoin",
    "NestedLoopJoin",
    "HashAggregate",
    "PlainAggregate",
]


@dataclass
class PlanNode:
    """Base class for all physical operators."""

    children: list["PlanNode"] = field(default_factory=list, kw_only=True)
    est_rows: float = field(default=0.0, kw_only=True)
    est_width: float = field(default=0.0, kw_only=True)
    est_cost: float = field(default=0.0, kw_only=True)
    actual_rows: int | None = field(default=None, kw_only=True)
    actual_ms: float | None = field(default=None, kw_only=True,
                                    compare=False)

    @property
    def operator_name(self) -> str:
        return type(self).__name__

    def rows(self, use_actual: bool) -> float:
        """Output cardinality from the requested source.

        ``use_actual=True`` requires the plan to have been executed.
        """
        if use_actual:
            if self.actual_rows is None:
                raise PlanError(
                    f"{self.operator_name} has no actual cardinality; "
                    "execute the plan first"
                )
            return float(self.actual_rows)
        return self.est_rows

    def validate(self) -> None:
        """Structural sanity checks; subclasses refine."""
        expected = self._expected_children()
        if expected is not None and len(self.children) != expected:
            raise PlanError(
                f"{self.operator_name} expects {expected} children, "
                f"got {len(self.children)}"
            )
        for child in self.children:
            child.validate()

    def _expected_children(self) -> int | None:
        return None

    def label(self) -> str:
        """Short human-readable description for EXPLAIN output."""
        return self.operator_name


def _relation(table: TableRef) -> str:
    """A scanned table as EXPLAIN names it: its name, then its alias
    where that differs (two scans of one table in a self-join)."""
    if table.alias and table.alias != table.table_name:
        return f"{table.table_name} {table.alias}"
    return table.table_name


@dataclass
class SeqScan(PlanNode):
    """Full table scan with optional pushed-down filters.

    ``projection`` restricts the columns the scan exposes to the
    operators above it (``None`` means all columns) and is what its
    ``est_width`` counts — set by the rewrite phase's
    projection-pruning step to narrow intermediates.
    """

    table: TableRef
    filters: tuple[Predicate, ...] = ()
    projection: tuple[str, ...] | None = None

    def _expected_children(self) -> int:
        return 0

    def label(self) -> str:
        base = f"Seq Scan on {_relation(self.table)}"
        if self.filters:
            base += f" (filters: {len(self.filters)})"
        if self.projection is not None:
            base += f" (columns: {len(self.projection)})"
        return base


@dataclass
class IndexScan(PlanNode):
    """B-tree index scan.

    ``index_predicates`` are satisfied via the index (range/equality on
    the indexed column); ``residual_filters`` are applied to fetched
    heap tuples.  ``lookup_column`` is set for parameterized scans that
    serve the inner side of an index nested-loop join (the outer join
    key drives the lookup).
    """

    table: TableRef
    index_name: str
    index_column: str
    index_predicates: tuple[Predicate, ...] = ()
    residual_filters: tuple[Predicate, ...] = ()
    lookup_column: ColumnRef | None = None
    projection: tuple[str, ...] | None = None

    def _expected_children(self) -> int:
        return 0

    def validate(self) -> None:
        super().validate()
        if not self.index_predicates and self.lookup_column is None:
            raise PlanError(
                f"index scan on {self.index_name} has neither index predicates "
                "nor a parameterized lookup column"
            )

    def label(self) -> str:
        base = f"Index Scan using {self.index_name} on {_relation(self.table)}"
        if self.lookup_column is not None:
            base += f" (lookup: {self.lookup_column})"
        if self.index_predicates:
            base += f" (index predicates: {len(self.index_predicates)})"
        if self.projection is not None:
            base += f" (columns: {len(self.projection)})"
        return base


@dataclass
class HashBuild(PlanNode):
    """Hash-table build over the inner side of a hash join.

    Mirrors Postgres' explicit ``Hash`` node (cf. paper Figure 2).
    """

    key: ColumnRef | None = None

    def _expected_children(self) -> int:
        return 1

    def label(self) -> str:
        return f"Hash (key: {self.key})" if self.key else "Hash"


@dataclass
class HashJoin(PlanNode):
    """Hash join: children are [probe side, HashBuild(build side)]."""

    condition: JoinCondition | None = None

    def _expected_children(self) -> int:
        return 2

    def validate(self) -> None:
        super().validate()
        if self.condition is None:
            raise PlanError("hash join without a join condition")
        if not isinstance(self.children[1], HashBuild):
            raise PlanError("hash join's second child must be a HashBuild")

    @property
    def probe_child(self) -> PlanNode:
        return self.children[0]

    def label(self) -> str:
        return f"Hash Join ({self.condition})"


@dataclass
class NestedLoopJoin(PlanNode):
    """Nested-loop join; with an inner parameterized IndexScan this is an
    index nested-loop join (the plan shape index tuning produces)."""

    condition: JoinCondition | None = None

    def _expected_children(self) -> int:
        return 2

    def validate(self) -> None:
        super().validate()
        if self.condition is None:
            raise PlanError("nested-loop join without a join condition")

    @property
    def is_index_nested_loop(self) -> bool:
        inner = self.children[1]
        return isinstance(inner, IndexScan) and inner.lookup_column is not None

    def label(self) -> str:
        kind = "Index Nested Loop" if self.is_index_nested_loop else "Nested Loop"
        return f"{kind} ({self.condition})"


@dataclass
class HashAggregate(PlanNode):
    """Grouped aggregation via hashing."""

    group_by: tuple[ColumnRef, ...] = ()
    aggregates: tuple[AggregateSpec, ...] = ()

    def _expected_children(self) -> int:
        return 1

    def validate(self) -> None:
        super().validate()
        if not self.group_by:
            raise PlanError("hash aggregate needs group-by keys "
                            "(use PlainAggregate otherwise)")

    def label(self) -> str:
        keys = ", ".join(str(c) for c in self.group_by)
        return f"HashAggregate (keys: {keys})"


@dataclass
class PlainAggregate(PlanNode):
    """Scalar aggregation over the whole input (e.g. ``MIN(...)``)."""

    aggregates: tuple[AggregateSpec, ...] = ()

    def _expected_children(self) -> int:
        return 1

    def label(self) -> str:
        inner = ", ".join(str(a) for a in self.aggregates) or "COUNT(*)"
        return f"Aggregate ({inner})"
