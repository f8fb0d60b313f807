"""Plan execution over columnar numpy data.

The executor walks the physical plan bottom-up, producing an
intermediate :class:`Relation` per node and annotating each node's
``actual_rows`` — exactly the information ``EXPLAIN ANALYZE`` yields in
the paper's training-data collection.

An intermediate holds **row ids, not columns**: one row-id vector per
table alias over the immutable base :class:`~repro.db.TableData`.  A
filter reads its predicate columns, a join its key column, a sort its
key, an aggregate the columns it names — each gathered from the base
arrays at the moment it is read; everything else only ever has its row
ids composed (late materialisation).  ``Relation.columns`` /
``.null_masks`` gather the full result on demand, for whoever looks at
a root.

Operators are dispatched through a class-level ``{operator class:
handler}`` dict (``Executor._HANDLERS``, indexed by ``type(node)``), and
each join handler calls the kernel of :mod:`repro.engine.join_kernels`
that runs the *algorithm its name promises*: hash joins build/probe
bucket arrays, merge joins exploit their sorted inputs, nested-loop
joins compare blockwise.  All kernels produce row-identical
results; they differ in speed, which is what the runtime simulator's
per-operator cost models mirror.

A :class:`BuildSideCache` can be shared by many queries against the
same database to memoize hash-join build sides (row ids + built hash
table), the batched-collection fast path the workload runner uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.db.database import Database
from repro.db.index import Index
from repro.db.table_data import TableData
from repro.engine.compiled_filters import CompiledFilterCache
from repro.engine.expressions import conjunction_mask, predicate_mask
from repro.engine.join_kernels import (
    JoinHashTable,
    block_nested_loop_match,
    hash_join_match,
    merge_join_match,
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
    TableRef,
)
from repro.util import LRUCache

__all__ = [
    "BuildSideCache",
    "ExecutionResult",
    "Executor",
    "Relation",
    "execute_plan",
]


class _Part(NamedTuple):
    """One table alias inside an intermediate: which base rows, in which
    order, and which columns the scan exposes."""

    data: TableData
    rows: np.ndarray | None     # None = every row, in storage order
    names: tuple[str, ...]

    def values(self, name: str) -> np.ndarray:
        values = self.data.column_values(name)
        return values if self.rows is None else values[self.rows]

    def nulls(self, name: str) -> np.ndarray | None:
        mask = self.data.null_masks.get(name)
        if mask is None or self.rows is None:
            return mask
        return mask[self.rows]

    def take(self, indices: np.ndarray) -> "_Part":
        rows = indices if self.rows is None else self.rows[indices]
        return _Part(self.data, rows, self.names)


def _split(ref: ColumnRef | str) -> tuple[str, str]:
    if isinstance(ref, ColumnRef):
        return ref.table, ref.column
    alias, _, name = ref.partition(".")
    return alias, name


class Relation:
    """An intermediate result: row ids per table alias + owned columns.

    A scan contributes its alias with a row-id vector over the base
    table and the column names it exposes (``projection``); joins,
    filters and sorts only compose row ids.  ``column`` / ``null_mask``
    gather one column from the base arrays when an operator reads it.
    Aggregates emit *owned* columns (``agg0``, group keys), which have
    no base table behind them.

    Column keys are qualified, e.g. ``"t.production_year"``.
    ``columns`` / ``null_masks`` are the fully gathered view, built on
    first access — for roots and tests, not for operators.  Base arrays
    are shared, never copied: neither they nor the arrays handed out
    here may be written to while a relation lives.
    """

    __slots__ = ("num_rows", "_parts", "_owned", "_gathered")

    def __init__(self, num_rows: int, parts: dict[str, _Part],
                 owned: dict[str, np.ndarray]):
        self.num_rows = num_rows
        self._parts = parts
        self._owned = owned
        self._gathered: tuple[dict, dict] | None = None

    @classmethod
    def scan(cls, alias: str, data: TableData,
             rows: np.ndarray | None = None,
             projection: tuple[str, ...] | None = None) -> "Relation":
        """Rows ``rows`` (None = all) of a base table under ``alias``,
        exposing ``projection`` (None = every column)."""
        names = data.table.column_names if projection is None else projection
        num_rows = data.num_rows if rows is None else len(rows)
        return cls(num_rows, {alias: _Part(data, rows, names)}, {})

    @classmethod
    def of_columns(cls, columns: dict[str, np.ndarray],
                   num_rows: int) -> "Relation":
        """Computed columns that no base table holds."""
        return cls(num_rows, {}, columns)

    # -- what an operator reads ----------------------------------------
    def _find(self, ref: ColumnRef | str
              ) -> tuple[_Part | None, str] | None:
        """``(part, column name)`` for a base column, ``(None, key)`` for
        an owned one, None for a column this relation does not expose."""
        alias, name = _split(ref)
        part = self._parts.get(alias)
        if part is not None and name in part.names:
            return part, name
        key = str(ref)
        return (None, key) if key in self._owned else None

    def _found(self, ref: ColumnRef | str) -> tuple[_Part | None, str]:
        found = self._find(ref)
        if found is None:
            raise ExecutionError(
                f"intermediate relation has no column {str(ref)!r}; "
                f"available: {sorted(self._keys())}"
            )
        return found

    def exposes(self, ref: ColumnRef | str) -> bool:
        return self._find(ref) is not None

    def column(self, ref: ColumnRef | str) -> np.ndarray:
        part, name = self._found(ref)
        return self._owned[name] if part is None else part.values(name)

    def null_mask(self, ref: ColumnRef | str) -> np.ndarray | None:
        part, name = self._found(ref)
        return None if part is None else part.nulls(name)

    # -- row-id composition --------------------------------------------
    def take(self, indices: np.ndarray) -> "Relation":
        return Relation(
            len(indices),
            {alias: part.take(indices)
             for alias, part in self._parts.items()},
            {key: values[indices] for key, values in self._owned.items()},
        )

    def merge(self, other: "Relation") -> "Relation":
        clash = (self._parts.keys() & other._parts.keys()) \
            | (self._owned.keys() & other._owned.keys())
        if clash:
            raise ExecutionError(
                f"column name clash on join: {sorted(clash)}")
        return Relation(self.num_rows, {**self._parts, **other._parts},
                        {**self._owned, **other._owned})

    # -- the gathered view ---------------------------------------------
    def _keys(self) -> list[str]:
        keys = [f"{alias}.{name}" for alias, part in self._parts.items()
                for name in part.names]
        keys.extend(self._owned)
        return keys

    def _gather(self) -> tuple[dict, dict]:
        if self._gathered is None:
            columns: dict[str, np.ndarray] = {}
            null_masks: dict[str, np.ndarray] = {}
            for alias, part in self._parts.items():
                for name in part.names:
                    key = f"{alias}.{name}"
                    columns[key] = part.values(name)
                    mask = part.nulls(name)
                    if mask is not None:
                        null_masks[key] = mask
            columns.update(self._owned)
            self._gathered = (columns, null_masks)
        return self._gathered

    @property
    def columns(self) -> dict[str, np.ndarray]:
        return self._gather()[0]

    @property
    def null_masks(self) -> dict[str, np.ndarray]:
        return self._gather()[1]


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
    """One memoized hash-join build side: row ids, never column copies."""

    relation: Relation
    actuals: tuple[int | None, ...]
    prepared: dict[str, tuple[Relation, JoinHashTable | None]] = \
        field(default_factory=dict)

    def prepared_for(self, key: ColumnRef
                     ) -> tuple[Relation, JoinHashTable | None]:
        """Null-dropped row ids + hash table for one build key column."""
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
    the build relation (row ids per alias over the base tables), the
    per-key-column hash tables and the subtree's actual cardinalities
    (replayed onto cache-hitting plans so the runtime simulator still
    sees an executed subtree).

    The cache binds to the first database it serves and refuses any
    other (structurally identical subtrees on different databases yield
    different rows).  Its entries point into the base table data, so
    that data must not change between queries; discard the cache after
    any data modification.
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

    Operator dispatch goes through the class-level ``_HANDLERS`` dict,
    indexed by the node's exact class; each join handler calls its own
    kernel from :mod:`repro.engine.join_kernels`.

    An optional :class:`BuildSideCache` memoizes hash-join build sides
    (row ids + hash table) across queries — sound as long as the
    database's table data is not modified while the cache lives.

    With ``compile_filters=True`` (the default) scan predicates run
    through :mod:`repro.engine.compiled_filters`: each scan's filter
    conjunction is compiled once into a fused kernel and cached on the
    executor.  ``compile_filters=False`` evaluates the same predicates
    with the interpreted ``predicate_mask`` — the bit-identical
    reference oracle.  Either way a filter reads its predicate columns
    from the base arrays and yields surviving row ids; the two differ
    in the evaluator alone.
    """

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
        relation = self._HANDLERS[type(node)](self, node)
        node.actual_rows = relation.num_rows
        return relation

    def _hash_build(self, node: HashBuild) -> Relation:
        return self._execute_node(node.children[0])

    # ------------------------------------------------------------------
    # Scans
    # ------------------------------------------------------------------
    def _scan(self, table: TableRef, rows: np.ndarray | None,
              projection: tuple[str, ...] | None,
              filters: tuple[Predicate, ...], cache_key: tuple
              ) -> tuple[Relation, np.ndarray | None]:
        """Rows ``rows`` (None = all) of a base table that pass ``filters``.

        Only the predicate columns are read, from the base arrays.  Also
        returns the surviving positions into ``rows`` (None when there
        was nothing to check) for a caller that has to narrow something
        else in step.
        """
        data = self.database.table_data(table.table_name)
        keep = None
        if filters:
            candidates = _Part(data, rows, ())
            num_rows = data.num_rows if rows is None else len(rows)
            if self.filter_cache is not None:
                compiled = self.filter_cache.get_or_compile(cache_key,
                                                            filters)
                keep = compiled.keep_positions(candidates.values,
                                               candidates.nulls, num_rows)
            else:
                masks = [predicate_mask(
                    candidates.values(predicate.column.column),
                    candidates.nulls(predicate.column.column), predicate)
                    for predicate in filters]
                keep = np.flatnonzero(conjunction_mask(num_rows, masks))
            rows = keep if rows is None else rows[keep]
        return Relation.scan(table.name, data, rows, projection), keep

    def _seq_scan(self, node: SeqScan) -> Relation:
        return self._scan(
            node.table, None, node.projection, node.filters,
            (node.table.name, node.filters, node.projection))[0]

    def _built_index(self, node: IndexScan) -> Index:
        index = self.database.indexes.get(node.index_name)
        if index is None:
            raise ExecutionError(f"no index named {node.index_name!r}")
        if index.hypothetical:
            raise ExecutionError(
                f"index {node.index_name!r} is hypothetical and cannot be executed"
            )
        return index

    def _fetch(self, node: IndexScan, row_ids: np.ndarray
               ) -> tuple[Relation, np.ndarray | None]:
        """The rows an index found, narrowed by the residual filters."""
        return self._scan(
            node.table, row_ids, node.projection, node.residual_filters,
            (node.table.name, node.residual_filters))

    def _index_scan(self, node: IndexScan) -> Relation:
        if node.lookup_column is not None:
            raise ExecutionError(
                "parameterized index scan executed outside a nested loop"
            )
        key_range = _index_interval(node.index_predicates)
        row_ids = self._built_index(node).range_lookup(
            key_range.low, key_range.high,
            key_range.low_inclusive, key_range.high_inclusive)
        return self._fetch(node, row_ids)[0]

    def _index_lookup(self, node: IndexScan, outer_keys: np.ndarray
                      ) -> tuple[np.ndarray, Relation]:
        """The inner side of an index nested loop: every inner row whose
        key equals an outer key, beside the outer position it matched."""
        outer_positions, row_ids = self._built_index(node).lookup_many(
            outer_keys)
        inner, keep = self._fetch(node, row_ids)
        if keep is not None:
            outer_positions = outer_positions[keep]
        return outer_positions, inner

    # ------------------------------------------------------------------
    # Joins
    # ------------------------------------------------------------------
    def _hash_join(self, node: HashJoin) -> Relation:
        probe = self._execute_node(node.children[0])
        build_node = node.children[1]
        if self.build_cache is not None:
            entry = self._cached_build(build_node)
            probe_ref, build_ref = _orient_condition(
                node.condition, probe, entry.relation)
            probe = _drop_null_keys(probe, probe_ref)
            build, table = entry.prepared_for(build_ref)
            probe_keys = probe.column(probe_ref)
            if table is not None and table.accepts(probe_keys.dtype):
                probe_idx, build_idx = table.probe(probe_keys)
                return probe.take(probe_idx).merge(build.take(build_idx))
            build_keys = build.column(build_ref)
        else:
            build = self._execute_node(build_node)
            probe_ref, build_ref = _orient_condition(node.condition, probe,
                                                     build)
            probe = _drop_null_keys(probe, probe_ref)
            build = _drop_null_keys(build, build_ref)
            probe_keys = probe.column(probe_ref)
            build_keys = build.column(build_ref)
        probe_idx, build_idx = hash_join_match(probe_keys, build_keys)
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
        left_idx, right_idx = merge_join_match(
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
            outer_positions, inner = self._index_lookup(
                inner_scan, outer.column(outer_ref))
            inner_node.actual_rows = inner.num_rows
            return outer.take(outer_positions).merge(inner)
        inner = self._execute_node(inner_node)
        left_ref, right_ref = _orient_condition(condition, outer, inner)
        outer = _drop_null_keys(outer, left_ref)
        inner = _drop_null_keys(inner, right_ref)
        left_idx, right_idx = block_nested_loop_match(
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
            return Relation.of_columns(columns, 0)
        key_arrays = [relation.column(c) for c in node.group_by]
        first_indices, group_ids = _group_rows(key_arrays)
        num_groups = len(first_indices)
        columns: dict[str, np.ndarray] = {}
        for ref, array in zip(node.group_by, key_arrays):
            columns[str(ref)] = array[first_indices]
        for index, agg in enumerate(node.aggregates):
            columns[f"agg{index}"] = _grouped_aggregate(relation, agg,
                                                        group_ids, num_groups)
        return Relation.of_columns(columns, num_groups)

    def _plain_aggregate(self, node: PlainAggregate) -> Relation:
        relation = self._execute_node(node.children[0])
        aggregates = node.aggregates or (AggregateSpec(AggregateFunction.COUNT),)
        columns = {}
        for index, agg in enumerate(aggregates):
            columns[f"agg{index}"] = np.array(
                [_scalar_aggregate(relation, agg)]
            )
        return Relation.of_columns(columns, 1)

    #: operator class → handler, looked up by ``type(node)``.
    _HANDLERS = {
        SeqScan: _seq_scan,
        IndexScan: _index_scan,
        HashBuild: _hash_build,
        HashJoin: _hash_join,
        MergeJoin: _merge_join,
        NestedLoopJoin: _nested_loop,
        Sort: _sort,
        HashAggregate: _hash_aggregate,
        PlainAggregate: _plain_aggregate,
    }


def _orient_condition(condition, left: Relation,
                      right: Relation) -> tuple[ColumnRef, ColumnRef]:
    """Figure out which side of an equi-join condition each input holds."""
    if left.exposes(condition.left) and right.exposes(condition.right):
        return condition.left, condition.right
    if left.exposes(condition.right) and right.exposes(condition.left):
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


def _group_rows(key_arrays: list[np.ndarray]
                ) -> tuple[np.ndarray, np.ndarray]:
    """Group rows by their key tuple: ``(first_indices, group_ids)``.

    Groups are numbered in ascending lexicographic key order and
    ``first_indices[g]`` is the first row of group ``g`` — what
    ``np.unique`` over a record array of the keys yields, without its
    comparison sort of a structured dtype: each key is ranked on its
    own and folded into the running group id, which is re-densified
    after every key so ``group_ids * distinct + rank`` stays below
    ``num_rows ** 2`` and cannot overflow ``int64``.
    """
    _, first_indices, group_ids = np.unique(
        key_arrays[0], return_index=True, return_inverse=True)
    for keys in key_arrays[1:]:
        distinct, ranks = np.unique(keys, return_inverse=True)
        _, first_indices, group_ids = np.unique(
            group_ids * len(distinct) + ranks,
            return_index=True, return_inverse=True)
    return first_indices, group_ids


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
