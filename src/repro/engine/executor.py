"""Plan execution over columnar numpy data.

The executor walks the physical plan bottom-up, producing an
intermediate :class:`Relation` per node and annotating each node's
``actual_rows`` — exactly the information ``EXPLAIN ANALYZE`` yields in
the paper's training-data collection.

Operators are dispatched through a class-level operator→handler table
(see ``Executor._HANDLERS`` and :func:`register_operator_handler`), and
each join operator runs the *algorithm its name promises* via the
kernel registry in :mod:`repro.engine.join_kernels`: hash joins
build/probe bucket arrays, merge joins exploit their sorted inputs,
nested-loop joins compare blockwise.  All kernels produce row-identical
results; they differ in speed, which is what the runtime simulator's
per-operator cost models mirror.

A :class:`BuildSideCache` can be shared by many queries against the
same database to memoize hash-join build sides (relation + built hash
table), the batched-collection fast path the workload runner uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.db.database import Database
from repro.db.table_data import TableData
from repro.engine.compiled_filters import CompiledFilterCache
from repro.engine.expressions import conjunction_mask, predicate_mask
from repro.engine.join_kernels import (
    JoinHashTable,
    hash_join_match,
    join_kernel_for,
)
from repro.errors import ExecutionError
from repro.plans.operators import (
    HashAggregate,
    HashBuild,
    HashJoin,
    IndexScan,
    MergeJoin,
    NestedLoopJoin,
    PlainAggregate,
    PlanNode,
    SeqScan,
    Sort,
)
from repro.plans.plan import PhysicalPlan, plan_signature
from repro.sql.ast import (
    AggregateFunction,
    AggregateSpec,
    ColumnRef,
    Interval,
    Predicate,
)
from repro.util import LRUCache, Registry

__all__ = [
    "BuildSideCache",
    "ExecutionResult",
    "Executor",
    "Relation",
    "execute_plan",
    "register_operator_handler",
]


@dataclass
class Relation:
    """An intermediate result: named columns + optional NULL masks.

    Column keys are qualified, e.g. ``"t.production_year"``.
    """

    columns: dict[str, np.ndarray]
    null_masks: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def num_rows(self) -> int:
        if not self.columns:
            return 0
        return len(next(iter(self.columns.values())))

    def column(self, ref: ColumnRef | str) -> np.ndarray:
        key = str(ref)
        try:
            return self.columns[key]
        except KeyError:
            raise ExecutionError(
                f"intermediate relation has no column {key!r}; "
                f"available: {sorted(self.columns)}"
            ) from None

    def null_mask(self, ref: ColumnRef | str) -> np.ndarray | None:
        return self.null_masks.get(str(ref))

    def take(self, indices: np.ndarray) -> "Relation":
        return Relation(
            columns={k: v[indices] for k, v in self.columns.items()},
            null_masks={k: v[indices] for k, v in self.null_masks.items()},
        )

    def merge(self, other: "Relation") -> "Relation":
        overlap = set(self.columns) & set(other.columns)
        if overlap:
            raise ExecutionError(f"column name clash on join: {sorted(overlap)}")
        columns = dict(self.columns)
        columns.update(other.columns)
        null_masks = dict(self.null_masks)
        null_masks.update(other.null_masks)
        return Relation(columns=columns, null_masks=null_masks)


@dataclass
class ExecutionResult:
    """Result of executing a plan."""

    relation: Relation
    root_rows: int

    def scalar(self, index: int = 0) -> float:
        """Value of the ``index``-th aggregate for scalar results."""
        keys = list(self.relation.columns)
        if not keys:
            raise ExecutionError("result has no columns")
        return float(self.relation.columns[keys[index]][0])


def _collect_actuals(node: PlanNode) -> tuple[int | None, ...]:
    """Pre-order ``actual_rows`` of a subtree (for cache replay)."""
    values: list[int | None] = []

    def visit(current: PlanNode) -> None:
        values.append(current.actual_rows)
        for child in current.children:
            visit(child)

    visit(node)
    return tuple(values)


def _restore_actuals(node: PlanNode, values: tuple[int | None, ...]) -> None:
    """Annotate a subtree with recorded ``actual_rows`` (same pre-order)."""
    iterator = iter(values)

    def visit(current: PlanNode) -> None:
        current.actual_rows = next(iterator)
        for child in current.children:
            visit(child)

    visit(node)


@dataclass
class _BuildEntry:
    """One memoized hash-join build side."""

    relation: Relation
    actuals: tuple[int | None, ...]
    prepared: dict[str, tuple[Relation, JoinHashTable | None]] = \
        field(default_factory=dict)

    def prepared_for(self, key: ColumnRef
                     ) -> tuple[Relation, JoinHashTable | None]:
        """Null-dropped relation + hash table for one build key column."""
        cache_key = str(key)
        entry = self.prepared.get(cache_key)
        if entry is None:
            dropped = _drop_null_keys(self.relation, key)
            table = JoinHashTable.build(dropped.column(key))
            entry = (dropped, table)
            self.prepared[cache_key] = entry
        return entry


class BuildSideCache(LRUCache):
    """LRU memo of executed hash-join build sides, shared across queries.

    Keyed by the build subtree's structural signature, each entry holds
    the materialized build relation, the per-key-column hash tables and
    the subtree's actual cardinalities (replayed onto cache-hitting
    plans so the runtime simulator still sees an executed subtree).

    The cache binds to the first database it serves and refuses any
    other (structurally identical subtrees on different databases yield
    different rows).  It also assumes the underlying table data does
    not change between queries; discard it after any data modification.
    """

    def __init__(self, max_entries: int = 64):
        if max_entries <= 0:
            raise ValueError(
                f"max_entries must be positive, got {max_entries}")
        super().__init__(max_entries)
        self.database: Database | None = None

    def check_database(self, database: Database) -> None:
        """Bind to ``database`` on first use; reject every other one."""
        if self.database is None:
            self.database = database
        elif self.database is not database:
            other = (f"{database.name!r}"
                     if database.name != self.database.name
                     else f"a different database instance also named "
                          f"{database.name!r}")
            raise ExecutionError(
                f"build-side cache is bound to database "
                f"{self.database.name!r} and cannot serve {other}; "
                f"use one cache per database"
            )

    def clear(self) -> None:
        super().clear()
        self.database = None


def _drop_null_keys(relation: Relation, key: ColumnRef) -> Relation:
    mask = relation.null_mask(key)
    if mask is None or not mask.any():
        return relation
    return relation.take(np.flatnonzero(~mask))


class Executor:
    """Executes physical plans against one database.

    Operator dispatch goes through the class-level ``_HANDLERS`` table
    (extensible via :func:`register_operator_handler`); join matching
    goes through the per-operator kernel registry in
    :mod:`repro.engine.join_kernels`.

    An optional :class:`BuildSideCache` memoizes hash-join build sides
    (relation + hash table) across queries — sound as long as the
    database's table data is not modified while the cache lives.

    With ``compile_filters=True`` (the default) scan predicates run
    through :mod:`repro.engine.compiled_filters`: each scan's
    ``(alias, filters, projection)`` tuple is compiled once into a
    fused kernel, cached on the executor, and sequential scans
    materialize only the surviving rows (filter before materialize
    instead of materialize-then-filter).  ``compile_filters=False``
    keeps the interpreted ``predicate_mask`` path as the bit-identical
    reference oracle.
    """

    #: operator class → bound handler; populated after the class body.
    _HANDLERS: Registry

    def __init__(self, database: Database,
                 build_cache: BuildSideCache | None = None,
                 compile_filters: bool = True):
        self.database = database
        self.build_cache = build_cache
        self.filter_cache = (CompiledFilterCache() if compile_filters
                             else None)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def execute(self, plan: PhysicalPlan) -> ExecutionResult:
        """Run the plan; annotate ``actual_rows`` on every node."""
        if plan.database_name != self.database.name:
            raise ExecutionError(
                f"plan was built for database {plan.database_name!r}, "
                f"executor is bound to {self.database.name!r}"
            )
        relation = self._execute_node(plan.root)
        return ExecutionResult(relation=relation, root_rows=plan.root.actual_rows)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _execute_node(self, node: PlanNode) -> Relation:
        relation = self._HANDLERS.get(type(node))(self, node)
        node.actual_rows = relation.num_rows
        return relation

    def _hash_build(self, node: HashBuild) -> Relation:
        return self._execute_node(node.children[0])

    # ------------------------------------------------------------------
    # Scans
    # ------------------------------------------------------------------
    def _base_relation(self, data: TableData, alias: str,
                       row_indices: np.ndarray | None = None,
                       projection: tuple[str, ...] | None = None) -> Relation:
        """Materialize a base table (optionally a row subset).

        ``projection`` restricts the materialized columns — the rewrite
        phase's pruning rule guarantees it covers every column the plan
        above reads.  ``None`` materializes all columns.
        """
        columns = {}
        null_masks = {}
        names = data.table.column_names if projection is None else projection
        for name in names:
            values = data.column_values(name)
            key = f"{alias}.{name}"
            columns[key] = values if row_indices is None else values[row_indices]
            mask = data.null_masks.get(name)
            if mask is not None:
                null_masks[key] = mask if row_indices is None else mask[row_indices]
        return Relation(columns=columns, null_masks=null_masks)

    def _apply_filters(self, relation: Relation, alias: str,
                       filters: tuple[Predicate, ...]) -> Relation:
        if not filters:
            return relation
        if self.filter_cache is not None:
            compiled = self.filter_cache.get_or_compile((alias, filters),
                                                        filters)
            keep = compiled.keep_positions(
                lambda name: relation.columns[f"{alias}.{name}"],
                lambda name: relation.null_masks.get(f"{alias}.{name}"),
                relation.num_rows,
            )
            return relation.take(keep)
        masks = []
        for predicate in filters:
            key = f"{alias}.{predicate.column.column}"
            masks.append(predicate_mask(relation.columns[key],
                                        relation.null_masks.get(key), predicate))
        keep = conjunction_mask(relation.num_rows, masks)
        return relation.take(np.flatnonzero(keep))

    def _seq_scan(self, node: SeqScan) -> Relation:
        data = self.database.table_data(node.table.table_name)
        alias = node.table.name
        if self.filter_cache is not None and node.filters:
            # Fused path: compute surviving row positions on the raw
            # table columns, then materialize (and copy) only those
            # rows — the interpreted path materializes every projected
            # column first and filters afterwards.  Filter columns are
            # always part of the projection (the rewrite phase's
            # pruning rule keeps every column the plan reads), so both
            # paths see the same inputs and produce identical rows.
            compiled = self.filter_cache.get_or_compile(
                (alias, node.filters, node.projection), node.filters)
            keep = compiled.keep_positions(data.column_values,
                                           data.null_masks.get,
                                           data.num_rows)
            return self._base_relation(data, alias, keep, node.projection)
        relation = self._base_relation(data, alias,
                                       projection=node.projection)
        return self._apply_filters(relation, alias, node.filters)

    def _index_scan(self, node: IndexScan, outer_keys: np.ndarray | None = None
                    ) -> Relation:
        index = self.database.indexes.get(node.index_name)
        if index is None:
            raise ExecutionError(f"no index named {node.index_name!r}")
        if index.hypothetical:
            raise ExecutionError(
                f"index {node.index_name!r} is hypothetical and cannot be executed"
            )
        data = self.database.table_data(node.table.table_name)

        if node.lookup_column is not None:
            if outer_keys is None:
                raise ExecutionError(
                    "parameterized index scan executed outside a nested loop"
                )
            # Match outer keys against the index (vectorized inner lookups).
            sorted_values = index._sorted_values
            starts = np.searchsorted(sorted_values, outer_keys, side="left")
            stops = np.searchsorted(sorted_values, outer_keys, side="right")
            counts = stops - starts
            total = int(counts.sum())
            if total == 0:
                row_indices = np.empty(0, dtype=np.int64)
                outer_indices = np.empty(0, dtype=np.int64)
            else:
                offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])
                within = np.arange(total) - np.repeat(offsets, counts)
                positions = np.repeat(starts, counts) + within
                row_indices = index._sorted_order[positions]
                outer_indices = np.repeat(np.arange(len(outer_keys)), counts)
            relation = self._base_relation(data, node.table.name, row_indices,
                                           projection=node.projection)
            relation = self._tag_outer(relation, outer_indices)
        else:
            key_range = _index_interval(node.index_predicates)
            row_indices = index.range_lookup(
                key_range.low, key_range.high,
                key_range.low_inclusive, key_range.high_inclusive)
            relation = self._base_relation(data, node.table.name, row_indices,
                                           projection=node.projection)

        return self._apply_filters(relation, node.table.name,
                                   node.residual_filters)

    @staticmethod
    def _tag_outer(relation: Relation, outer_indices: np.ndarray) -> Relation:
        tagged = Relation(columns=dict(relation.columns),
                          null_masks=dict(relation.null_masks))
        tagged.columns["__outer__"] = outer_indices
        return tagged

    # ------------------------------------------------------------------
    # Joins
    # ------------------------------------------------------------------
    def _hash_join(self, node: HashJoin) -> Relation:
        probe = self._execute_node(node.children[0])
        build_node = node.children[1]
        kernel = join_kernel_for(type(node))
        # The cached fast path only applies with the stock hash kernel:
        # a custom-registered kernel must see the raw key arrays.
        entry = None
        if self.build_cache is not None and kernel is hash_join_match:
            entry = self._cached_build(build_node)
        if entry is not None:
            probe_ref, build_ref = _orient_condition(
                node.condition, probe, entry.relation)
            probe = _drop_null_keys(probe, probe_ref)
            build, table = entry.prepared_for(build_ref)
            probe_keys = probe.column(probe_ref)
            if table is not None and table.accepts(probe_keys.dtype):
                probe_idx, build_idx = table.probe(probe_keys)
                return probe.take(probe_idx).merge(build.take(build_idx))
        else:
            build = self._execute_node(build_node)
            probe_ref, build_ref = _orient_condition(node.condition, probe,
                                                     build)
            probe = _drop_null_keys(probe, probe_ref)
            build = _drop_null_keys(build, build_ref)
        probe_idx, build_idx = kernel(probe.column(probe_ref),
                                      build.column(build_ref))
        return probe.take(probe_idx).merge(build.take(build_idx))

    def _cached_build(self, build_node: PlanNode) -> _BuildEntry:
        """Fetch (or execute and memoize) a hash-join build side."""
        self.build_cache.check_database(self.database)
        signature = plan_signature(build_node)
        entry = self.build_cache.get(signature)
        if entry is None:
            relation = self._execute_node(build_node)
            entry = _BuildEntry(relation, _collect_actuals(build_node))
            self.build_cache.put(signature, entry)
        else:
            # Replay the recorded cardinalities onto this plan's subtree
            # so downstream consumers (simulator, featurizers) still see
            # a fully executed plan.
            _restore_actuals(build_node, entry.actuals)
        return entry

    def _merge_join(self, node: MergeJoin) -> Relation:
        left = self._execute_node(node.children[0])
        right = self._execute_node(node.children[1])
        left_ref, right_ref = _orient_condition(node.condition, left, right)
        left = _drop_null_keys(left, left_ref)
        right = _drop_null_keys(right, right_ref)
        left_idx, right_idx = join_kernel_for(type(node))(
            left.column(left_ref), right.column(right_ref)
        )
        return left.take(left_idx).merge(right.take(right_idx))

    def _nested_loop(self, node: NestedLoopJoin) -> Relation:
        outer_node, inner_node = node.children
        outer = self._execute_node(outer_node)
        condition = node.condition
        if node.is_index_nested_loop:
            inner_scan: IndexScan = inner_node  # type: ignore[assignment]
            outer_ref = condition.other_side(inner_scan.table.name)
            outer = _drop_null_keys(outer, outer_ref)
            inner = self._index_scan(inner_scan, outer.column(outer_ref))
            inner_node.actual_rows = inner.num_rows
            outer_indices = inner.columns.pop("__outer__")
            return outer.take(outer_indices).merge(inner)
        inner = self._execute_node(inner_node)
        left_ref, right_ref = _orient_condition(condition, outer, inner)
        outer = _drop_null_keys(outer, left_ref)
        inner = _drop_null_keys(inner, right_ref)
        left_idx, right_idx = join_kernel_for(type(node))(
            outer.column(left_ref), inner.column(right_ref)
        )
        return outer.take(left_idx).merge(inner.take(right_idx))

    # ------------------------------------------------------------------
    # Sort / aggregation
    # ------------------------------------------------------------------
    def _sort(self, node: Sort) -> Relation:
        relation = self._execute_node(node.children[0])
        order = np.argsort(relation.column(node.key), kind="stable")
        return relation.take(order)

    def _hash_aggregate(self, node: HashAggregate) -> Relation:
        relation = self._execute_node(node.children[0])
        if relation.num_rows == 0:
            columns = {str(c): np.empty(0) for c in node.group_by}
            for index, agg in enumerate(node.aggregates):
                columns[f"agg{index}"] = np.empty(0)
            return Relation(columns=columns)
        key_arrays = [relation.column(c) for c in node.group_by]
        stacked = np.rec.fromarrays(key_arrays)
        unique_keys, first_indices, group_ids = np.unique(
            stacked, return_index=True, return_inverse=True
        )
        num_groups = len(unique_keys)
        columns: dict[str, np.ndarray] = {}
        for ref, array in zip(node.group_by, key_arrays):
            columns[str(ref)] = array[first_indices]
        for index, agg in enumerate(node.aggregates):
            columns[f"agg{index}"] = _grouped_aggregate(relation, agg,
                                                        group_ids, num_groups)
        return Relation(columns=columns)

    def _plain_aggregate(self, node: PlainAggregate) -> Relation:
        relation = self._execute_node(node.children[0])
        aggregates = node.aggregates or (AggregateSpec(AggregateFunction.COUNT),)
        columns = {}
        for index, agg in enumerate(aggregates):
            columns[f"agg{index}"] = np.array(
                [_scalar_aggregate(relation, agg)]
            )
        return Relation(columns=columns)


Executor._HANDLERS = Registry(
    "operator handler", ExecutionError, key_base=PlanNode, defaults={
        SeqScan: Executor._seq_scan,
        IndexScan: Executor._index_scan,
        HashBuild: Executor._hash_build,
        HashJoin: Executor._hash_join,
        MergeJoin: Executor._merge_join,
        NestedLoopJoin: Executor._nested_loop,
        Sort: Executor._sort,
        HashAggregate: Executor._hash_aggregate,
        PlainAggregate: Executor._plain_aggregate,
    })


def register_operator_handler(
    op_class: type[PlanNode],
    handler: Callable[[Executor, PlanNode], Relation] | None,
) -> Callable[[Executor, PlanNode], Relation] | None:
    """Register an execution handler for a (possibly new) operator class.

    The handler receives ``(executor, node)`` and returns the node's
    output :class:`Relation`; ``actual_rows`` annotation happens in the
    dispatch loop.  Returns the previously registered handler so
    temporary overrides can be restored by passing it back —
    ``handler=None`` removes the class's own entry (MRO lookup then
    falls back to a parent's handler).
    """
    return Executor._HANDLERS.register(op_class, handler)


def _orient_condition(condition, left: Relation,
                      right: Relation) -> tuple[ColumnRef, ColumnRef]:
    """Figure out which side of an equi-join condition each input holds."""
    if str(condition.left) in left.columns and str(condition.right) in right.columns:
        return condition.left, condition.right
    if str(condition.right) in left.columns and str(condition.left) in right.columns:
        return condition.right, condition.left
    raise ExecutionError(
        f"join condition {condition} does not match the join inputs"
    )


def _index_interval(predicates: tuple[Predicate, ...]) -> Interval:
    """The one key range a conjunction of index predicates admits."""
    key_range = Interval()
    for predicate in predicates:
        bounds = predicate.interval()
        if bounds is None:
            raise ExecutionError(
                f"operator {predicate.operator} cannot be served by an index")
        key_range = key_range.intersect(bounds)
    return key_range


def _non_null(relation: Relation, ref: ColumnRef) -> np.ndarray:
    values = relation.column(ref)
    mask = relation.null_mask(ref)
    if mask is None:
        return values
    return values[~mask]


def _scalar_aggregate(relation: Relation, agg: AggregateSpec) -> float:
    if agg.function is AggregateFunction.COUNT:
        if agg.column is None:
            return float(relation.num_rows)
        return float(len(_non_null(relation, agg.column)))
    values = _non_null(relation, agg.column)
    if len(values) == 0:
        return float("nan")
    if agg.function is AggregateFunction.SUM:
        return float(values.sum())
    if agg.function is AggregateFunction.AVG:
        return float(values.mean())
    if agg.function is AggregateFunction.MIN:
        return float(values.min())
    if agg.function is AggregateFunction.MAX:
        return float(values.max())
    raise ExecutionError(f"unsupported aggregate {agg.function}")


def _grouped_aggregate(relation: Relation, agg: AggregateSpec,
                       group_ids: np.ndarray, num_groups: int) -> np.ndarray:
    if agg.function is AggregateFunction.COUNT and agg.column is None:
        return np.bincount(group_ids, minlength=num_groups).astype(np.float64)
    values = relation.column(agg.column).astype(np.float64)
    mask = relation.null_mask(agg.column)
    if mask is not None:
        values = values.copy()
        weights = (~mask).astype(np.float64)
    else:
        weights = np.ones(len(values))
    if agg.function is AggregateFunction.COUNT:
        return np.bincount(group_ids, weights=weights, minlength=num_groups)
    if agg.function in (AggregateFunction.SUM, AggregateFunction.AVG):
        sums = np.bincount(group_ids, weights=values * weights,
                           minlength=num_groups)
        if agg.function is AggregateFunction.SUM:
            return sums
        counts = np.bincount(group_ids, weights=weights, minlength=num_groups)
        with np.errstate(invalid="ignore", divide="ignore"):
            return sums / counts
    # MIN / MAX via sorting group ids then values.
    result = np.full(num_groups, np.nan)
    if mask is not None:
        keep = ~mask
        values = values[keep]
        group_ids = group_ids[keep]
    if len(values):
        if agg.function is AggregateFunction.MIN:
            order = np.lexsort((values, group_ids))
            firsts = np.unique(group_ids[order], return_index=True)
            result[firsts[0]] = values[order][firsts[1]]
        elif agg.function is AggregateFunction.MAX:
            order = np.lexsort((-values, group_ids))
            firsts = np.unique(group_ids[order], return_index=True)
            result[firsts[0]] = values[order][firsts[1]]
        else:  # pragma: no cover - exhaustive
            raise ExecutionError(f"unsupported aggregate {agg.function}")
    return result


def execute_plan(database: Database, plan: PhysicalPlan) -> ExecutionResult:
    """Convenience wrapper: ``Executor(database).execute(plan)``."""
    return Executor(database).execute(plan)
