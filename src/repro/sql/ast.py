"""Query AST.

The modelled query space matches the paper's workloads: acyclic
equi-joins along foreign keys, conjunctions of single-column comparison
predicates, and up to a few aggregates with optional GROUP BY.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import QueryError

__all__ = [
    "ComparisonOperator",
    "AggregateFunction",
    "TableRef",
    "ColumnRef",
    "Interval",
    "Predicate",
    "JoinCondition",
    "AggregateSpec",
    "Query",
    "join_column_classes",
]


class ComparisonOperator(enum.Enum):
    """Supported predicate comparison operators."""

    EQ = "="
    NEQ = "<>"
    LT = "<"
    LEQ = "<="
    GT = ">"
    GEQ = ">="
    BETWEEN = "BETWEEN"
    IN = "IN"

    @property
    def is_range(self) -> bool:
        return self in (ComparisonOperator.LT, ComparisonOperator.LEQ,
                        ComparisonOperator.GT, ComparisonOperator.GEQ,
                        ComparisonOperator.BETWEEN)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class AggregateFunction(enum.Enum):
    """Supported aggregate functions."""

    COUNT = "COUNT"
    SUM = "SUM"
    AVG = "AVG"
    MIN = "MIN"
    MAX = "MAX"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class TableRef:
    """A table in the FROM clause.  ``alias`` defaults to the table name."""

    table_name: str
    alias: str | None = None

    @property
    def name(self) -> str:
        return self.alias or self.table_name

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        if self.alias and self.alias != self.table_name:
            return f"{self.table_name} {self.alias}"
        return self.table_name


@dataclass(frozen=True)
class ColumnRef:
    """A qualified column reference ``table_alias.column``."""

    table: str
    column: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.table}.{self.column}"


@dataclass(frozen=True)
class Predicate:
    """A single-column comparison predicate.

    ``value`` is a scalar for plain comparisons, a 2-tuple for BETWEEN,
    and a tuple of scalars for IN.
    """

    column: ColumnRef
    operator: ComparisonOperator
    value: float | tuple

    def __post_init__(self):
        if self.operator is ComparisonOperator.BETWEEN:
            if not (isinstance(self.value, tuple) and len(self.value) == 2):
                raise QueryError(f"BETWEEN needs a (low, high) tuple, got {self.value!r}")
            low, high = self.value
            if low > high:
                raise QueryError(f"BETWEEN bounds reversed: {self.value!r}")
        elif self.operator is ComparisonOperator.IN:
            if not (isinstance(self.value, tuple) and len(self.value) >= 1):
                raise QueryError(f"IN needs a non-empty tuple, got {self.value!r}")
        elif isinstance(self.value, tuple):
            raise QueryError(
                f"operator {self.operator} takes a scalar, got {self.value!r}"
            )

    def interval(self) -> "Interval | None":
        """The one key range this predicate admits (EQ, LT, LEQ, GT,
        GEQ, BETWEEN); ``None`` for NEQ and IN, which are not a range."""
        operator, value = self.operator, self.value
        if operator is ComparisonOperator.EQ:
            return Interval(value, True, value, True)
        if operator is ComparisonOperator.BETWEEN:
            return Interval(value[0], True, value[1], True)
        if operator in (ComparisonOperator.GT, ComparisonOperator.GEQ):
            return Interval(low=value,
                            low_inclusive=operator is ComparisonOperator.GEQ)
        if operator in (ComparisonOperator.LT, ComparisonOperator.LEQ):
            return Interval(high=value,
                            high_inclusive=operator is ComparisonOperator.LEQ)
        return None

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        if self.operator is ComparisonOperator.BETWEEN:
            return f"{self.column} BETWEEN {self.value[0]} AND {self.value[1]}"
        if self.operator is ComparisonOperator.IN:
            inner = ", ".join(str(v) for v in self.value)
            return f"{self.column} IN ({inner})"
        return f"{self.column} {self.operator.value} {self.value}"


@dataclass(frozen=True)
class Interval:
    """The values a conjunction of range predicates admits on one column.

    Every bound anybody derives from predicates — the rewriter's merged
    conjunction, the executor's index range, the optimizer's histogram
    range — is a fold of :meth:`Predicate.interval` values with
    :meth:`intersect`.  ``None`` is an absent bound; its inclusive flag
    stays ``True`` so equal intervals compare equal.
    """

    low: float | None = None
    low_inclusive: bool = True
    high: float | None = None
    high_inclusive: bool = True

    def intersect(self, other: "Interval") -> "Interval":
        """The interval both admit: the tighter bound per side, and at
        equal bounds inclusive only when both are."""
        low, low_inclusive = self.low, self.low_inclusive
        if other.low is not None:
            if low is None or other.low > low:
                low, low_inclusive = other.low, other.low_inclusive
            elif other.low == low:
                low_inclusive = low_inclusive and other.low_inclusive
        high, high_inclusive = self.high, self.high_inclusive
        if other.high is not None:
            if high is None or other.high < high:
                high, high_inclusive = other.high, other.high_inclusive
            elif other.high == high:
                high_inclusive = high_inclusive and other.high_inclusive
        return Interval(low, low_inclusive, high, high_inclusive)

    def contains(self, value: float) -> bool:
        if self.low is not None and (
                value < self.low
                or (value == self.low and not self.low_inclusive)):
            return False
        if self.high is not None and (
                value > self.high
                or (value == self.high and not self.high_inclusive)):
            return False
        return True

    @property
    def is_empty(self) -> bool:
        """True when no value can satisfy both bounds."""
        if self.low is None or self.high is None:
            return False
        return self.low > self.high or (
            self.low == self.high
            and not (self.low_inclusive and self.high_inclusive))

    def predicates(self, column: ColumnRef) -> tuple[Predicate, ...]:
        """The fewest predicates on ``column`` that admit exactly this
        interval: EQ for a point, BETWEEN for a closed range, else one
        comparison per present bound (low first)."""
        if (self.low is not None and self.high is not None
                and self.low_inclusive and self.high_inclusive):
            if self.low == self.high:
                return (Predicate(column, ComparisonOperator.EQ, self.low),)
            if self.low < self.high:
                return (Predicate(column, ComparisonOperator.BETWEEN,
                                  (self.low, self.high)),)
        out = []
        if self.low is not None:
            operator = ComparisonOperator.GEQ if self.low_inclusive \
                else ComparisonOperator.GT
            out.append(Predicate(column, operator, self.low))
        if self.high is not None:
            operator = ComparisonOperator.LEQ if self.high_inclusive \
                else ComparisonOperator.LT
            out.append(Predicate(column, operator, self.high))
        return tuple(out)


@dataclass(frozen=True)
class JoinCondition:
    """An equi-join condition ``left = right``."""

    left: ColumnRef
    right: ColumnRef

    def other_side(self, table: str) -> ColumnRef:
        if self.left.table == table:
            return self.right
        if self.right.table == table:
            return self.left
        raise QueryError(f"join condition {self} does not reference {table!r}")

    def side_for(self, table: str) -> ColumnRef:
        if self.left.table == table:
            return self.left
        if self.right.table == table:
            return self.right
        raise QueryError(f"join condition {self} does not reference {table!r}")

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.left} = {self.right}"


@dataclass(frozen=True)
class AggregateSpec:
    """One aggregate in the SELECT list (column is None for COUNT(*))."""

    function: AggregateFunction
    column: ColumnRef | None = None

    def __post_init__(self):
        if self.function is not AggregateFunction.COUNT and self.column is None:
            raise QueryError(f"{self.function} requires a column argument")

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        inner = "*" if self.column is None else str(self.column)
        return f"{self.function.value}({inner})"


@dataclass(frozen=True)
class Query:
    """A select-project-join-aggregate query.

    Attributes
    ----------
    tables:
        FROM-clause tables (aliases must be unique).
    joins:
        Equi-join conditions; the induced join graph must be connected
        and acyclic (validated against a schema separately).
    predicates:
        Conjunctive single-column filters.
    aggregates:
        SELECT-list aggregates (empty means ``COUNT(*)`` semantics for
        cardinality-style queries).
    group_by:
        Optional grouping columns.
    """

    tables: tuple[TableRef, ...]
    joins: tuple[JoinCondition, ...] = ()
    predicates: tuple[Predicate, ...] = ()
    aggregates: tuple[AggregateSpec, ...] = ()
    group_by: tuple[ColumnRef, ...] = ()

    def __post_init__(self):
        if not self.tables:
            raise QueryError("a query needs at least one table")
        names = [table.name for table in self.tables]
        if len(set(names)) != len(names):
            raise QueryError(f"duplicate table aliases in query: {names}")

    @property
    def table_names(self) -> tuple[str, ...]:
        return tuple(table.name for table in self.tables)

    def table_ref(self, alias: str) -> TableRef:
        for table in self.tables:
            if table.name == alias:
                return table
        raise QueryError(f"no table aliased {alias!r} in query")

    def predicates_on(self, alias: str) -> tuple[Predicate, ...]:
        return tuple(p for p in self.predicates if p.column.table == alias)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        from repro.sql.text import query_to_sql
        return query_to_sql(self)


def join_column_classes(
    joins: tuple[JoinCondition, ...] | list[JoinCondition],
) -> tuple[frozenset[ColumnRef], ...]:
    """Column equivalence classes induced by a set of equi-join conditions.

    ``a = b`` and ``b = c`` place ``a``, ``b`` and ``c`` in one class.
    Only classes with at least two members are returned (a column that
    appears in no join condition is not in any class).  The result is
    deterministic: classes are ordered by their smallest member's string
    form, which makes derived artifacts (e.g. inferred join conditions)
    stable across runs.

    Each column maps to the one set that is its class; a condition
    joining two classes folds the smaller set into the larger and points
    the smaller one's columns at the result.
    """
    class_of: dict[ColumnRef, set[ColumnRef]] = {}
    for join in joins:
        left = class_of.setdefault(join.left, {join.left})
        right = class_of.setdefault(join.right, {join.right})
        if left is right:
            continue
        if len(left) < len(right):
            left, right = right, left
        left |= right
        for column in right:
            class_of[column] = left

    classes = {id(group): group for group in class_of.values()}.values()
    members = [frozenset(group) for group in classes if len(group) >= 2]
    if len(members) > 1:
        members.sort(key=lambda group: min(map(str, group)))
    return tuple(members)
