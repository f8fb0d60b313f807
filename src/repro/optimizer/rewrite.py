"""Rule-based logical rewrite phase.

The planner normally goes straight from the parsed query to DP join
enumeration; every scan drags its full predicate set and every
intermediate carries the full tuple width.  This module adds a logical
rewrite phase in front of the cost-based search, in the style of
DBSim's rule objects: rules match an operand pattern over a small
logical operator tree and return a transformed tree (or ``None`` when
they do not apply), and a :class:`RewritePlanner` applies the rules of
:data:`RULES`, in order, until fixpoint, guarded by a hard firing cap.

Pieces
------

* A logical operator tree (:class:`LogicalScan`, :class:`LogicalFilter`,
  :class:`LogicalJoin`, :class:`LogicalAggregate`) built canonically
  from a :class:`~repro.sql.ast.Query` by :func:`build_logical_plan`
  and lowered back to a flat query (plus per-scan projection lists) by
  :func:`lower_logical_plan`.
* The :class:`RewriteRule` protocol.
* Four rules: predicate pushdown, filter merge, transitive
  join-condition inference and projection pruning, applied in the
  order of the module-level :data:`RULES` tuple.
* :class:`RewritePlanner`: fixpoint application with a hard cap and a
  per-query :class:`RewriteTrace` (which rules fired, in what order,
  node counts before/after).

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
from dataclasses import dataclass, field
from functools import reduce
from typing import Protocol

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
    "LogicalNode",
    "LogicalScan",
    "LogicalFilter",
    "LogicalJoin",
    "LogicalAggregate",
    "RewriteContext",
    "RewriteRule",
    "RuleFiring",
    "RewriteTrace",
    "RewriteResult",
    "RewritePlanner",
    "PredicatePushdownRule",
    "FilterMergeRule",
    "TransitiveJoinRule",
    "ProjectionPruningRule",
    "build_logical_plan",
    "lower_logical_plan",
    "walk_logical",
    "count_logical_nodes",
    "logical_plan_repr",
    "merge_conjunction",
]

#: Hard cap on total rule firings per query.  Well-behaved rules reach
#: fixpoint in a handful of firings; the cap exists to turn a
#: misbehaving rule (fires forever on its own output) into a
#: :class:`PlannerError` carrying the trace instead of a hang.
MAX_RULE_FIRINGS = 64


# ----------------------------------------------------------------------
# Logical operator tree
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LogicalNode:
    """Base class for logical operators.  Immutable; rules rebuild.

    At construction a node records the pre-order tuple of the nodes
    below it (``_below``, the node itself left out so that it holds no
    reference to itself).  Nodes never change, so the tuple never goes
    stale: walking, finding and counting read it instead of re-walking
    the tree.  It is a plain attribute, not a field: equality, hashing,
    ``repr`` and ``dataclasses.replace`` see the fields only.
    """

    children: tuple["LogicalNode", ...] = field(default=(), kw_only=True)

    def __post_init__(self):
        below: tuple[LogicalNode, ...] = ()
        for child in self.children:
            below += (child,) + child._below
        object.__setattr__(self, "_below", below)

    @property
    def operator_name(self) -> str:
        return type(self).__name__

    def label(self) -> str:
        return self.operator_name


@dataclass(frozen=True)
class LogicalScan(LogicalNode):
    """A base-table access.  ``columns=None`` means all columns."""

    alias: str
    table_name: str
    predicates: tuple[Predicate, ...] = ()
    columns: tuple[str, ...] | None = None

    def label(self) -> str:
        parts = [f"Scan {self.table_name}"]
        if self.alias != self.table_name:
            parts.append(f"as {self.alias}")
        if self.predicates:
            parts.append("[" + " AND ".join(str(p) for p in self.predicates) + "]")
        if self.columns is not None:
            parts.append("cols(" + ", ".join(self.columns) + ")")
        return " ".join(parts)


@dataclass(frozen=True)
class LogicalFilter(LogicalNode):
    """A conjunction of predicates over one child."""

    predicates: tuple[Predicate, ...]

    def label(self) -> str:
        return "Filter [" + " AND ".join(str(p) for p in self.predicates) + "]"


@dataclass(frozen=True)
class LogicalJoin(LogicalNode):
    """An n-ary equi-join: children are the joined inputs, conditions
    the full (possibly transitively closed) edge set."""

    conditions: tuple[JoinCondition, ...]

    def label(self) -> str:
        return "Join [" + " AND ".join(str(c) for c in self.conditions) + "]"


@dataclass(frozen=True)
class LogicalAggregate(LogicalNode):
    """SELECT-list aggregates with optional GROUP BY."""

    aggregates: tuple = ()
    group_by: tuple[ColumnRef, ...] = ()

    def label(self) -> str:
        inner = ", ".join(str(a) for a in self.aggregates) or "COUNT(*)"
        if self.group_by:
            inner += " GROUP BY " + ", ".join(str(c) for c in self.group_by)
        return f"Aggregate {inner}"


def walk_logical(root: LogicalNode) -> tuple[LogicalNode, ...]:
    """Depth-first pre-order traversal of a logical tree."""
    return (root,) + root._below


def count_logical_nodes(root: LogicalNode) -> int:
    return 1 + len(root._below)


def logical_plan_repr(root: LogicalNode) -> str:
    """Indented multi-line rendering (for goldens and debugging)."""
    lines: list[str] = []

    def visit(node: LogicalNode, depth: int) -> None:
        lines.append("  " * depth + node.label())
        for child in node.children:
            visit(child, depth + 1)

    visit(root, 0)
    return "\n".join(lines)


def replace_logical_nodes(root: LogicalNode,
                          replacements: dict[int, LogicalNode]
                          ) -> LogicalNode:
    """Rebuild ``root`` once, bottom-up, with every node whose ``id`` is
    a key of ``replacements`` swapped for its value.  A subtree holding
    no such node is kept as it is, not copied."""
    replacement = replacements.get(id(root))
    if replacement is not None:
        return replacement
    if not root.children:
        return root
    children = tuple([replace_logical_nodes(child, replacements)
                      for child in root.children])
    if all(map(operator.is_, children, root.children)):
        return root
    return _replace(root, children=children)


def _replace(node: LogicalNode, **changes) -> LogicalNode:
    """``dataclasses.replace(node, **changes)`` without re-running
    ``__init__``, at about a third of its cost.  Logical nodes check
    nothing at construction, so the node's fields with ``changes``
    applied are the node ``replace`` would build; the pre-order tuple is
    recomputed only when the children change.  ``changes`` must name
    fields (the rules below are the only callers)."""
    new = object.__new__(type(node))
    new.__dict__.update(node.__dict__, **changes)
    if "children" in changes:
        new.__post_init__()
    return new


def find_logical_nodes(root: LogicalNode, node_type) -> list[LogicalNode]:
    return [node for node in walk_logical(root) if isinstance(node, node_type)]


# ----------------------------------------------------------------------
# Build / lower
# ----------------------------------------------------------------------
def build_logical_plan(query: Query) -> LogicalNode:
    """Canonical logical tree: Aggregate(Filter(Join(Scans...))).

    All predicates start *above* the join in a single filter — the
    pushdown rule, not the builder, is responsible for moving them into
    the scans, so the rule actually has work to do and its firing shows
    up in the trace.
    """
    scans: tuple[LogicalNode, ...] = tuple(
        LogicalScan(alias=table.name, table_name=table.table_name)
        for table in query.tables
    )
    if len(scans) == 1:
        root = scans[0]
    else:
        root = LogicalJoin(conditions=query.joins, children=scans)
    if query.predicates:
        root = LogicalFilter(predicates=query.predicates, children=(root,))
    return LogicalAggregate(aggregates=query.aggregates,
                            group_by=query.group_by, children=(root,))


def lower_logical_plan(root: LogicalNode, original: Query
                       ) -> tuple[Query, dict[str, tuple[str, ...]], tuple[str, ...]]:
    """Flatten a (rewritten) logical tree back into a planner query.

    Returns ``(query, scan_columns, notes)`` where ``scan_columns``
    maps alias -> kept columns for scans the projection rule pruned,
    and ``notes`` records lowering actions (e.g. force-pushing filter
    predicates that no rule moved — the physical layer has no
    standalone Filter operator, so every predicate must live on a scan).
    """
    scans = {node.alias: node
             for node in find_logical_nodes(root, LogicalScan)}
    joins_nodes = find_logical_nodes(root, LogicalJoin)
    filters = find_logical_nodes(root, LogicalFilter)
    aggregates = find_logical_nodes(root, LogicalAggregate)

    if set(scans) != {table.name for table in original.tables}:
        raise PlannerError(
            "rewrite produced a logical plan whose scans do not match the "
            f"query's tables: {sorted(scans)} vs {sorted(original.table_names)}"
        )
    if len(joins_nodes) > 1 or len(aggregates) != 1:
        raise PlannerError(
            "rewrite produced an unloadable logical plan shape "
            f"({len(joins_nodes)} joins, {len(aggregates)} aggregates)"
        )

    notes: list[str] = []
    forced: dict[str, list[Predicate]] = {}
    for flt in filters:
        for predicate in flt.predicates:
            alias = predicate.column.table
            if alias not in scans:
                raise PlannerError(
                    f"filter predicate {predicate} references unknown "
                    f"alias {alias!r}"
                )
            forced.setdefault(alias, []).append(predicate)
    if forced:
        notes.append(
            "force-pushed %d un-pushed filter predicate(s) into scans"
            % sum(len(v) for v in forced.values())
        )

    predicates: list[Predicate] = []
    for table in original.tables:
        scan = scans[table.name]
        predicates.extend(scan.predicates)
        predicates.extend(forced.get(table.name, ()))

    joins = joins_nodes[0].conditions if joins_nodes else ()
    agg = aggregates[0]
    rewritten = Query(
        tables=original.tables,
        joins=tuple(joins),
        predicates=tuple(predicates),
        aggregates=agg.aggregates,
        group_by=agg.group_by,
    )
    scan_columns = {
        alias: scan.columns for alias, scan in sorted(scans.items())
        if scan.columns is not None
    }
    return rewritten, scan_columns, tuple(notes)


# ----------------------------------------------------------------------
# Rule protocol and trace
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RewriteContext:
    """What a rule may consult besides the tree itself."""

    query: Query
    schema: Schema | None = None


class RewriteRule(Protocol):
    """A rewrite rule: match an operand pattern, return a transformed
    tree or ``None`` when the rule does not apply.

    Conformance contract (checked by the rewrite test suite): applying
    a rule to its own output must eventually return ``None`` — rules
    that always fire trip the :data:`MAX_RULE_FIRINGS` cap and raise
    :class:`PlannerError`.
    """

    name: str
    description: str

    def apply(self, root: LogicalNode,
              context: RewriteContext) -> LogicalNode | None: ...


@dataclass(frozen=True)
class RuleFiring:
    """One rule application inside the fixpoint loop."""

    rule: str
    iteration: int
    nodes_before: int
    nodes_after: int


@dataclass(frozen=True)
class RewriteTrace:
    """Per-query record of what the rewrite phase did."""

    firings: tuple[RuleFiring, ...] = ()
    nodes_before: int = 0
    nodes_after: int = 0
    notes: tuple[str, ...] = ()
    truncated: bool = False

    @property
    def firing_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for firing in self.firings:
            counts[firing.rule] = counts.get(firing.rule, 0) + 1
        return counts


@dataclass(frozen=True)
class RewriteResult:
    """Output of :meth:`RewritePlanner.rewrite`."""

    query: Query
    scan_columns: dict[str, tuple[str, ...]]
    trace: RewriteTrace
    logical_plan: LogicalNode


# ----------------------------------------------------------------------
# Built-in rules
# ----------------------------------------------------------------------
class PredicatePushdownRule:
    """Move single-alias filter predicates below joins into their scan."""

    name = "predicate-pushdown"
    description = ("push filter predicates down to the scan of the alias "
                   "they reference")

    def apply(self, root: LogicalNode,
              context: RewriteContext) -> LogicalNode | None:
        for flt in find_logical_nodes(root, LogicalFilter):
            scans = {node.alias for node in flt._below
                     if isinstance(node, LogicalScan)}
            movable: dict[str, list[Predicate]] = {}
            residual: list[Predicate] = []
            for predicate in flt.predicates:
                if predicate.column.table in scans:
                    movable.setdefault(predicate.column.table,
                                       []).append(predicate)
                else:
                    residual.append(predicate)
            if not movable:
                continue
            child = flt.children[0]
            pushed = replace_logical_nodes(child, {
                id(scan): _replace(scan, predicates=scan.predicates
                                   + tuple(movable[scan.alias]))
                for scan in walk_logical(child)
                if isinstance(scan, LogicalScan) and scan.alias in movable
            })
            if residual:
                replacement = _replace(flt, predicates=tuple(residual),
                                       children=(pushed,))
            else:
                replacement = pushed
            return replace_logical_nodes(root, {id(flt): replacement})
        return None


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


class FilterMergeRule:
    """Collapse stacked filters and AND-combine predicates per column."""

    name = "filter-merge"
    description = ("collapse Filter(Filter(x)) and compress per-column "
                   "conjunctions into their exact minimal form")

    def apply(self, root: LogicalNode,
              context: RewriteContext) -> LogicalNode | None:
        nodes = walk_logical(root)
        for flt in nodes:
            if not isinstance(flt, LogicalFilter):
                continue
            child = flt.children[0]
            if isinstance(child, LogicalFilter):
                merged = LogicalFilter(
                    predicates=flt.predicates + child.predicates,
                    children=child.children,
                )
                return replace_logical_nodes(root, {id(flt): merged})
        for node in nodes:
            if isinstance(node, (LogicalFilter, LogicalScan)) \
                    and node.predicates:
                merged = merge_conjunction(node.predicates)
                if merged is not None:
                    return replace_logical_nodes(
                        root, {id(node): _replace(node, predicates=merged)}
                    )
        return None


class TransitiveJoinRule:
    """Derive ``a = c`` from ``a = b AND b = c`` to unlock join orders.

    Adds the within-class transitive closure of the equi-join
    conditions (skipping self-joins on one alias).  Derived edges come
    after the original ones, so the first connecting condition — the
    single one the planner applies per merge — still prefers original
    edges, and fragment canonicalization stays stable.
    """

    name = "transitive-joins"
    description = ("add the transitive closure of equi-join conditions "
                   "within each column equivalence class")

    def apply(self, root: LogicalNode,
              context: RewriteContext) -> LogicalNode | None:
        for join in find_logical_nodes(root, LogicalJoin):
            # A two-member class is one of the join's own conditions:
            # it derives nothing, and one condition forms no other.
            if len(join.conditions) < 2:
                continue
            classes = [group for group in join_column_classes(join.conditions)
                       if len(group) > 2]
            if not classes:
                continue
            existing = {
                frozenset((condition.left, condition.right))
                for condition in join.conditions
            }
            derived: list[JoinCondition] = []
            for group in classes:
                columns = sorted(group, key=str)
                for i, left in enumerate(columns):
                    for right in columns[i + 1:]:
                        if left.table == right.table:
                            continue
                        key = frozenset((left, right))
                        if key in existing:
                            continue
                        existing.add(key)
                        derived.append(JoinCondition(left, right))
            if derived:
                return replace_logical_nodes(root, {
                    id(join): _replace(
                        join, conditions=join.conditions + tuple(derived)),
                })
        return None


class ProjectionPruningRule:
    """Restrict each scan to the columns the rest of the plan reads."""

    name = "projection-pruning"
    description = ("annotate scans with the columns referenced by joins, "
                   "filters, aggregates and GROUP BY, shrinking widths")

    def apply(self, root: LogicalNode,
              context: RewriteContext) -> LogicalNode | None:
        required: dict[str, set[str]] = {}

        def need(column: ColumnRef) -> None:
            required.setdefault(column.table, set()).add(column.column)

        nodes = walk_logical(root)
        for node in nodes:
            if isinstance(node, LogicalScan):
                for predicate in node.predicates:
                    need(predicate.column)
            elif isinstance(node, LogicalFilter):
                for predicate in node.predicates:
                    need(predicate.column)
            elif isinstance(node, LogicalJoin):
                for condition in node.conditions:
                    need(condition.left)
                    need(condition.right)
            elif isinstance(node, LogicalAggregate):
                for aggregate in node.aggregates:
                    if aggregate.column is not None:
                        need(aggregate.column)
                for column in node.group_by:
                    need(column)

        replacements: dict[int, LogicalNode] = {}
        for scan in nodes:
            if not isinstance(scan, LogicalScan):
                continue
            kept = required.get(scan.alias)
            # COUNT(*)-only scans keep all columns.  The executor counts
            # row ids and would run a scan of no columns, but the kept
            # columns are the scan's ``est_width`` (``Planner.
            # _table_width``), which costs, features and labels are
            # built on: a zero-width scan would move all three.
            columns = tuple(sorted(kept)) if kept else None
            if columns != scan.columns:
                replacements[id(scan)] = _replace(scan, columns=columns)
        if not replacements:
            return None
        return replace_logical_nodes(root, replacements)


#: Every rule of the rewrite phase, in application order: pushdown
#: before merge (merge compresses the pushed-down scan conjunctions),
#: transitive closure on the full edge set, pruning last so it sees the
#: final column demand.
RULES: tuple[RewriteRule, ...] = (
    PredicatePushdownRule(),
    FilterMergeRule(),
    TransitiveJoinRule(),
    ProjectionPruningRule(),
)


# ----------------------------------------------------------------------
# The rewrite planner
# ----------------------------------------------------------------------
class RewritePlanner:
    """Applies :data:`RULES` to fixpoint, DBSim-style.

    Rules run in tuple order; each rule is re-applied until it
    stops matching before the next rule runs, and full passes repeat
    until a pass fires nothing.  A hard cap
    (:data:`MAX_RULE_FIRINGS`) turns non-terminating rule sets into a
    :class:`PlannerError` with the partial :class:`RewriteTrace`
    attached as ``error.trace``.
    """

    def __init__(self, schema: Schema | None = None):
        self.schema = schema

    def rewrite(self, query: Query) -> RewriteResult:
        root = build_logical_plan(query)
        context = RewriteContext(query=query, schema=self.schema)
        nodes_before = count_logical_nodes(root)
        firings: list[RuleFiring] = []
        iteration = 0

        def overflow_error() -> PlannerError:
            trace = RewriteTrace(
                firings=tuple(firings),
                nodes_before=nodes_before,
                nodes_after=count_logical_nodes(root),
                truncated=True,
            )
            counts = ", ".join(
                f"{name}×{count}" for name, count in trace.firing_counts.items()
            )
            return PlannerError(
                f"rewrite did not reach fixpoint within {MAX_RULE_FIRINGS} "
                f"rule firings ({counts}); a rule keeps firing on its own "
                "output",
                trace=trace,
            )

        pass_fired = True
        while pass_fired:
            pass_fired = False
            iteration += 1
            for rule in RULES:
                while True:
                    result = rule.apply(root, context)
                    if result is None:
                        break
                    if len(firings) >= MAX_RULE_FIRINGS:
                        raise overflow_error()
                    firings.append(RuleFiring(
                        rule=rule.name,
                        iteration=iteration,
                        nodes_before=count_logical_nodes(root),
                        nodes_after=count_logical_nodes(result),
                    ))
                    root = result
                    pass_fired = True

        rewritten, scan_columns, notes = lower_logical_plan(root, query)
        trace = RewriteTrace(
            firings=tuple(firings),
            nodes_before=nodes_before,
            nodes_after=count_logical_nodes(root),
            notes=notes,
        )
        return RewriteResult(query=rewritten, scan_columns=scan_columns,
                             trace=trace, logical_plan=root)
