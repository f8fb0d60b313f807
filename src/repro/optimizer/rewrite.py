"""The logical rewrite phase: one pass over the flat query.

The planner normally goes straight from the parsed query to DP join
enumeration; every scan drags its full predicate set and every
intermediate carries the full tuple width.  :class:`RewritePlanner`
rewrites the query in front of the cost-based search, in one pass of
four steps.  A step that changes the query is named in the query's
:class:`RewriteTrace`:

``predicate-pushdown``
    groups the predicates per scan, in table order, keeping each
    scan's own order (that of ``Query.predicates_on``);
``filter-merge``
    compresses each scan's conjunction into its exact minimal form
    (:func:`merge_conjunction`), named once per scan it changes;
``transitive-joins``
    appends the transitive closure of the equi-join conditions after
    the original conditions (:func:`_derived_joins`);
``projection-pruning``
    restricts each scan to the columns that its predicates, the joins,
    the aggregates and ``GROUP BY`` read (:func:`_scan_columns`).

No step changes what an earlier one reads, and each leaves nothing for
a second pass: a rewritten query rewrites to itself, with no
conjunction merged and no join condition derived.

Correctness notes
-----------------

Transitive inference can make the join graph cyclic (``a=b``, ``b=c``
implies ``a=c``).  That is safe because derived conditions stay within
one column equivalence class: the executor applies exactly one
condition per component merge, and any spanning tree over a class'
closure enforces the same row set as the original tree edges.  The
planner never re-validates rewritten queries (validation enforces the
acyclic invariant on *input* queries only), and
``CardinalityEstimator.joined_rows`` multiplies selectivities over a
spanning forest so redundant derived edges are not double counted.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import reduce

from repro.db.schema import Schema
from repro.errors import PlannerError
from repro.sql.ast import (
    ColumnRef,
    ComparisonOperator,
    Interval,
    JoinCondition,
    Predicate,
    Query,
    join_column_classes,
)

__all__ = [
    "RewriteTrace",
    "RewriteResult",
    "RewritePlanner",
    "merge_conjunction",
]


@dataclass(frozen=True)
class RewriteTrace:
    """Per-query record of what the rewrite phase did: the name of each
    step that changed the query, in the order the steps ran."""

    firings: tuple[str, ...] = ()


@dataclass(frozen=True)
class RewriteResult:
    """Output of :meth:`RewritePlanner.rewrite`."""

    query: Query
    scan_columns: dict[str, tuple[str, ...]]
    trace: RewriteTrace


def merge_conjunction(predicates: tuple[Predicate, ...]
                      ) -> tuple[Predicate, ...] | None:
    """Exact conjunction compression.  Returns the merged tuple, or
    ``None`` when nothing changed (the canonical form is a fixpoint).

    Only *exact* simplifications are made — an EQ absorbs ranges and IN
    sets it satisfies, IN sets intersect with each other and with range
    bounds, ranges fold into their tightest interval, singleton IN
    becomes EQ (which can unlock index scans).  Contradictory inputs
    (e.g. ``x = 1 AND x = 2``) are left untouched apart from exact
    de-duplication: both forms select zero rows, and keeping the
    originals avoids inventing an "empty" predicate form.
    """
    if _is_canonical(predicates):
        return None
    by_column: dict[ColumnRef, list[Predicate]] = {}
    order: list[ColumnRef] = []
    for predicate in predicates:
        if predicate.column not in by_column:
            order.append(predicate.column)
        by_column.setdefault(predicate.column, []).append(predicate)

    out: list[Predicate] = []
    for column in order:
        out.extend(_merge_column(column, by_column[column]))
    merged = tuple(out)
    return None if merged == predicates else merged


def _is_canonical(predicates: tuple[Predicate, ...]) -> bool:
    """Whether a conjunction is already its own merged form, decided
    without merging: every predicate is alone on its column, no BETWEEN
    is a point (low bound not below the high one, which becomes an EQ),
    and every IN has at least two members in strictly rising order
    (merging sorts and de-duplicates the members and turns a singleton
    into an EQ).  ``_merge_column`` returns an equal predicate for each
    such one."""
    columns = set()
    ins = []
    for predicate in predicates:
        if predicate.operator is ComparisonOperator.IN:
            ins.append(predicate.value)
        elif predicate.operator is ComparisonOperator.BETWEEN \
                and not predicate.value[0] < predicate.value[1]:
            return False
        columns.add((predicate.column.table, predicate.column.column))
    # Members are compared only once every column is known to be alone:
    # the merge then sorts each IN's members too, so incomparable
    # members raise here exactly where merging would raise.
    return len(columns) == len(predicates) and all(
        len(members) > 1 and all(map(operator.lt, members, members[1:]))
        for members in ins)


def _dedup(predicates: list[Predicate]) -> list[Predicate]:
    seen = set()
    kept = []
    for predicate in predicates:
        key = (predicate.operator, predicate.value)
        if key in seen:
            continue
        seen.add(key)
        kept.append(predicate)
    return kept


def _merge_column(column: ColumnRef,
                  predicates: list[Predicate]) -> list[Predicate]:
    predicates = _dedup(predicates)
    eqs = [p for p in predicates if p.operator is ComparisonOperator.EQ]
    ins = [p for p in predicates if p.operator is ComparisonOperator.IN]
    ranges = [p for p in predicates if p.operator.is_range]
    others = [p for p in predicates
              if p not in eqs and p not in ins and p not in ranges]

    interval = reduce(Interval.intersect,
                      (p.interval() for p in ranges), Interval())

    if eqs:
        values = {p.value for p in eqs}
        if len(values) > 1:
            return predicates  # contradictory EQs: keep as written
        value = eqs[0].value
        if not interval.contains(value):
            return predicates
        if any(value not in p.value for p in ins):
            return predicates
        return [Predicate(column, ComparisonOperator.EQ, value)] + others

    if ins:
        members = set(ins[0].value)
        for predicate in ins[1:]:
            members &= set(predicate.value)
        members = {v for v in members if interval.contains(v)}
        if not members:
            return predicates  # empty intersection: keep as written
        if len(members) == 1:
            merged = [Predicate(column, ComparisonOperator.EQ,
                                next(iter(members)))]
        else:
            merged = [Predicate(column, ComparisonOperator.IN,
                                tuple(sorted(members)))]
        return merged + others

    if ranges:
        if interval.is_empty:
            return predicates  # empty interval: keep as written
        return list(interval.predicates(column)) + others

    return others



def _derived_joins(joins: tuple[JoinCondition, ...]
                   ) -> tuple[JoinCondition, ...]:
    """The conditions the transitive closure of ``joins`` adds: every
    pair of columns of one equivalence class that is not a condition
    already, classes in :func:`~repro.sql.ast.join_column_classes`
    order, each class' columns sorted by their string form.  Pairs on
    one alias are skipped (no self-joins).

    Derived conditions go after the original ones, so the first
    connecting condition, the single one the planner applies at each
    join, is still an original one, and fragment canonicalization
    stays stable.
    """
    # One condition forms no other.
    if len(joins) < 2:
        return ()
    existing = {frozenset((join.left, join.right)) for join in joins}
    derived: list[JoinCondition] = []
    for group in join_column_classes(joins):
        columns = sorted(group, key=str)
        for i, left in enumerate(columns):
            for right in columns[i + 1:]:
                if left.table != right.table \
                        and frozenset((left, right)) not in existing:
                    derived.append(JoinCondition(left, right))
    return tuple(derived)


def _scan_columns(query: Query) -> dict[str, tuple[str, ...]]:
    """Alias -> the sorted columns the rest of the plan reads of that
    scan (its predicates, the join conditions, the aggregates and
    ``GROUP BY``), for the query's own tables, in alias order.

    A scan read by ``COUNT(*)`` alone is left out and keeps all
    columns.  The executor counts row ids and would run a scan of no
    columns, but the kept columns are the scan's ``est_width``
    (``Planner._table_width``), which costs, features and labels are
    built on: a zero-width scan would move all three.
    """
    required: dict[str, set[str]] = {}
    columns = [predicate.column for predicate in query.predicates]
    for join in query.joins:
        columns += (join.left, join.right)
    columns += [aggregate.column for aggregate in query.aggregates
                if aggregate.column is not None]
    columns += query.group_by
    for column in columns:
        required.setdefault(column.table, set()).add(column.column)
    return {alias: tuple(sorted(required[alias]))
            for alias in sorted(query.table_names) if alias in required}


class RewritePlanner:
    """Rewrites a query in one pass (see the module docstring).

    ``schema`` is accepted so that a caller can build one rewriter per
    database; no step reads it.
    """

    def __init__(self, schema: Schema | None = None):
        self.schema = schema

    def rewrite(self, query: Query) -> RewriteResult:
        firings: list[str] = []
        conjunctions: dict[str, list[Predicate]] = {
            table.name: [] for table in query.tables}
        for predicate in query.predicates:
            conjunction = conjunctions.get(predicate.column.table)
            if conjunction is None:
                raise PlannerError(
                    f"filter predicate {predicate} references unknown "
                    f"alias {predicate.column.table!r}")
            conjunction.append(predicate)
        if query.predicates:
            firings.append("predicate-pushdown")

        predicates: list[Predicate] = []
        for conjunction in conjunctions.values():
            merged = merge_conjunction(tuple(conjunction))
            if merged is not None:
                firings.append("filter-merge")
                conjunction = merged
            predicates.extend(conjunction)

        # A single scan joins nothing: the planner never reads its
        # conditions.
        joins = query.joins if len(query.tables) > 1 else ()
        derived = _derived_joins(joins)
        if derived:
            firings.append("transitive-joins")

        rewritten = Query(tables=query.tables, joins=joins + derived,
                          predicates=tuple(predicates),
                          aggregates=query.aggregates,
                          group_by=query.group_by)
        scan_columns = _scan_columns(rewritten)
        if scan_columns:
            firings.append("projection-pruning")
        return RewriteResult(query=rewritten, scan_columns=scan_columns,
                             trace=RewriteTrace(firings=tuple(firings)))
