"""Plan execution over columnar numpy data.

The executor walks the physical plan bottom-up, producing an
intermediate :class:`Relation` per node and annotating each node's
``actual_rows`` — exactly the information ``EXPLAIN ANALYZE`` yields in
the paper's training-data collection — and its ``actual_ms``, the
node's inclusive wall time (a measurement only, which no label, feature
or signature reads).

An intermediate holds **row ids, not columns**: one row-id vector per
table alias over the immutable base :class:`~repro.db.TableData`.  A
filter reads its predicate columns, a join its key column, an
aggregate the columns it names — each gathered from the base arrays at
the moment it is read; everything else only ever has its row ids
composed (late materialisation).  ``Relation.columns`` /
``.null_masks`` gather the full result on demand, for whoever looks at
a root.

``PlainAggregate`` and ``HashAggregate`` share one handler and one
fold: a scalar aggregate is a grouped one with a single group, which
holds every input row even when there are none.  Grouping orders the
rows so each group is one run — one stable sort of per-key ranks, a
radix sort when they span fewer than 2**16 values — and ``_fold``
reduces each run (``np.add`` / ``np.minimum`` /
``np.maximum.reduceat``) with a column's NULLs dropped; ``SUM`` and
``AVG`` add in ``float64``, ``COUNT``, ``MIN`` and ``MAX`` are exact,
and a group with no non-NULL value folds to NaN (``COUNT``: 0).

A ``PlainAggregate`` directly on a ``HashJoin`` builds no join row at
all, and neither does a ``HashAggregate`` there whose group keys and
aggregated columns all sit on one side of the join: it runs the join's
inputs itself, matches the probe keys against the hash table without
expanding them (``JoinHashTable.match``) and feeds the grouping and
the fold weighted rows — a probe row weighs its key's run of build
rows, a build row the number of probe rows that reached it (eager
aggregation, Yan & Larson, VLDB 1995).  The join node still gets the
``actual_rows`` the expansion would have built, and the time of its
inputs and its match as ``actual_ms``.  Every other shape
materialises its input and folds it with no weights.

Operators are dispatched through a class-level ``{operator class:
handler}`` dict (``Executor._HANDLERS``, indexed by ``type(node)``), and
each join handler calls the kernel of :mod:`repro.engine.join_kernels`
that runs the *algorithm its name promises*: hash joins build/probe
a join table, nested-loop joins compare blockwise.  All kernels
produce row-identical results; they differ in speed, which is what the
runtime simulator's per-operator cost models mirror.

A :class:`BuildSideCache` can be shared by many queries against the
same database to memoize hash-join build sides (row ids + built hash
table), the batched-collection fast path the workload runner uses.
"""

from __future__ import annotations

import time
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
    _grouped,
    block_nested_loop_match,
    hash_join_table,
)
from repro.errors import ExecutionError
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
    table and the column names it exposes (``projection``); joins and
    filters only compose row ids.  ``column`` / ``null_mask``
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
    """Annotate a subtree with recorded ``actual_rows`` (same pre-order);
    its ``actual_ms`` is cleared, since nothing of it ran."""
    iterator = iter(values)

    def visit(current: PlanNode) -> None:
        current.actual_rows = next(iterator)
        current.actual_ms = None
        for child in current.children:
            visit(child)

    visit(node)


@dataclass
class _BuildEntry:
    """One memoized hash-join build side: row ids, never column copies."""

    relation: Relation
    actuals: tuple[int | None, ...]
    prepared: dict[str, tuple[Relation, JoinHashTable]] = \
        field(default_factory=dict)

    def prepared_for(self, key: ColumnRef) -> tuple[Relation, JoinHashTable]:
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
    mask = _any_null(relation.null_mask(key))
    return relation if mask is None else relation.take(np.flatnonzero(~mask))


class _HashJoinInputs(NamedTuple):
    """Both sides of a hash join, ready to be matched."""

    probe: Relation
    build: Relation
    probe_keys: np.ndarray
    #: Over ``int64`` / ``float64`` keys, the only dtypes ``TableData``
    #: stores, so every join key hashes.
    table: JoinHashTable


def _joined(inputs: _HashJoinInputs) -> Relation:
    """The hash join's rows, one per matching pair."""
    probe_idx, build_idx = inputs.table.probe(inputs.probe_keys)
    return inputs.probe.take(probe_idx).merge(inputs.build.take(build_idx))


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
        start = time.perf_counter()
        relation = self._HANDLERS[type(node)](self, node)
        node.actual_rows = relation.num_rows
        node.actual_ms = _ms_since(start)
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
        return _joined(self._hash_join_inputs(node))

    def _hash_join_inputs(self, node: HashJoin) -> _HashJoinInputs:
        """Execute both sides of a hash join and prepare its match: the
        sides oriented to the condition, NULL keys dropped, and a table
        over the build keys — the cached one when it accepts the probe
        keys, else one built on keys promoted to a common dtype."""
        probe = self._execute_node(node.children[0])
        build_node = node.children[1]
        if self.build_cache is not None:
            entry = self._cached_build(build_node)
            probe_ref, build_ref = _orient_condition(
                node.condition, probe, entry.relation)
            probe = _drop_null_keys(probe, probe_ref)
            build, table = entry.prepared_for(build_ref)
            probe_keys = probe.column(probe_ref)
            if table.accepts(probe_keys.dtype):
                return _HashJoinInputs(probe, build, probe_keys, table)
        else:
            build = self._execute_node(build_node)
            probe_ref, build_ref = _orient_condition(node.condition, probe,
                                                     build)
            probe = _drop_null_keys(probe, probe_ref)
            build = _drop_null_keys(build, build_ref)
            probe_keys = probe.column(probe_ref)
        probe_keys, _, table = hash_join_table(probe_keys,
                                               build.column(build_ref))
        return _HashJoinInputs(probe, build, probe_keys, table)

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

    def _nested_loop(self, node: NestedLoopJoin) -> Relation:
        outer_node, inner_node = node.children
        outer = self._execute_node(outer_node)
        condition = node.condition
        if node.is_index_nested_loop:
            inner_scan: IndexScan = inner_node  # type: ignore[assignment]
            outer_ref = condition.other_side(inner_scan.table.name)
            outer = _drop_null_keys(outer, outer_ref)
            start = time.perf_counter()
            outer_positions, inner = self._index_lookup(
                inner_scan, outer.column(outer_ref))
            inner_node.actual_rows = inner.num_rows
            inner_node.actual_ms = _ms_since(start)
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
    # Aggregation
    # ------------------------------------------------------------------
    def _aggregate(self, node: PlainAggregate | HashAggregate) -> Relation:
        """One row per group of the child's rows: grouped by the keys, or
        one group (even of no rows) when there are none.

        Over a ``HashJoin`` the fold reads the join's matches, not its
        rows, whenever it can (:func:`_matched_sides`): always for a
        scalar aggregate, and for a grouped one whose keys and columns
        all sit on one side of the join.  Every other input, keys and
        columns on both sides of a join included, is built and grouped
        row by row."""
        group_by = getattr(node, "group_by", ())   # PlainAggregate has none
        aggregates = node.aggregates or (
            () if group_by else (AggregateSpec(AggregateFunction.COUNT),))
        child = node.children[0]
        if type(child) is HashJoin:
            start = time.perf_counter()
            child.actual_rows, sides = _matched_sides(
                self._hash_join_inputs(child), group_by, aggregates)
            child.actual_ms = _ms_since(start)
        else:
            relation = self._execute_node(child)
            sides = [_Side(relation, None, _one_group(relation.num_rows))]
        columns: dict[str, np.ndarray] = {}
        if group_by:
            (side,) = sides
            sides = [_grouped_side(side, group_by, aggregates, columns)]
        runs = {}
        for index, agg in enumerate(aggregates):
            if agg.column not in runs:
                runs[agg.column] = _runs(sides, agg.column)
            columns[f"agg{index}"] = _fold(agg.function, *runs[agg.column])
        return Relation.of_columns(columns, len(sides[0].bounds) - 1)

    #: operator class → handler, looked up by ``type(node)``.
    _HANDLERS = {
        SeqScan: _seq_scan,
        IndexScan: _index_scan,
        HashBuild: _hash_build,
        HashJoin: _hash_join,
        NestedLoopJoin: _nested_loop,
        HashAggregate: _aggregate,
        PlainAggregate: _aggregate,
    }


def _ms_since(start: float) -> float:
    """Milliseconds of wall time since ``start`` (a ``perf_counter``)."""
    return (time.perf_counter() - start) * 1e3


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


def _group_rows(key_arrays: list[np.ndarray],
                null_masks: list[np.ndarray | None]
                ) -> tuple[np.ndarray, np.ndarray]:
    """Group rows by their key tuple: ``(order, starts)``.

    ``order`` lists the rows group by group, groups in ascending
    lexicographic key order and each group's rows in input order; group
    ``g`` is ``order[starts[g]:starts[g + 1]]`` (the last one runs to the
    end).  A row a key's null mask marks ranks one past every value of
    that key, whatever value it stores: NULLs form one group, after the
    others.

    Each key is ranked on its own (:func:`_key_ranks`, every rank in
    ``[0, top]`` with ``top < max(num_rows + 1, 2**16)``) and folded into
    the running rank as ``ranks * (top + 1) + rank``.  The running rank
    is re-densified (to below ``num_rows``) before a third key, so it
    stays below ``max(num_rows + 1, 2**16) ** 2`` and cannot overflow
    ``int64``.  One stable sort of the running ranks then lists the
    groups: ``join_kernels._grouped``, the join build's, which is numpy's
    O(n) radix sort when the ranks span fewer than 2**16 values — always
    for a single narrow integer key.
    """
    ranks = None
    for position, (keys, mask) in enumerate(zip(key_arrays, null_masks)):
        key_ranks, top = _key_ranks(keys, mask)
        if position > 1:
            ranks = np.unique(ranks, return_inverse=True)[1]
        ranks = key_ranks if ranks is None else \
            ranks * (top + 1) + key_ranks
    order, _, starts = _grouped(ranks)
    return order, starts


def _key_ranks(keys: np.ndarray, mask: np.ndarray | None
               ) -> tuple[np.ndarray, int]:
    """``(ranks, top)``: ``int64`` ranks of one key that order its rows as
    their values do, with every row ``mask`` marks at ``top``, past them
    all.

    An ``int64`` key whose non-NULL values span ``span < 2**16`` values
    is ranked by its offset ``key - min``, on ``[0, span)``, with ``top =
    span``.  A NULL row may store any ``int64``, the extremes included,
    so the offset is taken modulo 2**64 (wrapping ``uint64``, exact on
    the non-NULL rows, whose offsets fit) and the NULL rows are
    overwritten after it.  Every other key ranks by ``np.unique``'s
    inverse, ``top`` its number of distinct stored values.
    """
    values = keys if mask is None else keys[~mask]
    if keys.dtype == np.int64 and len(values):
        low = int(values.min())
        span = int(values.max()) - low + 1     # Python ints: no overflow
        if span < 1 << 16:
            ranks = (keys.view(np.uint64)
                     - np.uint64(low % (1 << 64))).view(np.int64)
            if mask is not None:
                ranks[mask] = span
            return ranks, span
    distinct, ranks = np.unique(keys, return_inverse=True)
    if mask is not None:
        ranks[mask] = len(distinct)
    return ranks, len(distinct)


def _any_null(mask: np.ndarray | None) -> np.ndarray | None:
    """``mask`` when it marks a NULL, else None."""
    return mask if mask is not None and mask.any() else None


class _Side(NamedTuple):
    """Rows an aggregate folds, grouped: group ``g`` is rows
    ``bounds[g]`` up to ``bounds[g + 1]``, and row i weighs
    ``weights[i]`` (``None``: every row weighs one)."""

    relation: Relation
    weights: np.ndarray | None
    bounds: np.ndarray


def _one_group(num_rows: int) -> np.ndarray:
    """The bounds of ``num_rows`` rows as a single group."""
    return np.array([0, num_rows], dtype=np.intp)


def _rows_read(relation: Relation, rows: np.ndarray, read: bool
               ) -> Relation:
    """``relation.take(rows)`` when a column of it is ``read``; when none
    is (``COUNT(*)`` alone) only the number of rows, so no alias's row
    ids are composed for nothing."""
    if read:
        return relation.take(rows)
    return Relation.of_columns({}, len(rows))


def _matched_sides(inputs: _HashJoinInputs, group_by, aggregates
                   ) -> tuple[int, list[_Side]]:
    """A hash join's row count, and its rows as the sides an aggregate
    folds, each one group.

    The join's rows are not built: a side is the probe rows that
    matched, each weighing its key's run of build rows, or the build
    rows they reached, each weighing the number of probe rows that
    reached it (:meth:`JoinHashTable.matched_build_rows`) — eager
    aggregation, Yan & Larson, VLDB 1995.  A side is there when
    ``group_by`` or ``aggregates`` read a column of it (the probe side
    also when they read none, for ``COUNT(*)``).  A side is grouped on
    its own, so a grouped aggregate gets one side only: when its keys
    and columns sit on both, the join's rows are built instead and form
    the one side, each row weighing one.
    """
    reads = [ref for ref in (*group_by, *(agg.column for agg in aggregates))
             if ref is not None]
    on_probe = sum(inputs.probe.exposes(ref) for ref in reads)
    if group_by and 0 < on_probe < len(reads):
        relation = _joined(inputs)
        return relation.num_rows, [
            _Side(relation, None, _one_group(relation.num_rows))]
    probe_rows, slots = inputs.table.match(inputs.probe_keys)
    runs = inputs.table.run_lengths(slots)
    total = len(slots) if runs is None else int(runs.sum())
    sides = []
    if on_probe or not reads:
        sides.append(_Side(_rows_read(inputs.probe, probe_rows, on_probe > 0),
                           runs, _one_group(len(probe_rows))))
    if on_probe < len(reads):
        build_rows, reached = inputs.table.matched_build_rows(slots)
        sides.append(_Side(inputs.build.take(build_rows), reached,
                           _one_group(len(build_rows))))
    return total, sides


def _grouped_side(side: _Side, group_by, aggregates,
                  columns: dict[str, np.ndarray]) -> _Side:
    """``side``'s rows in groups of equal ``group_by`` keys
    (:func:`_group_rows`), each row keeping its weight; each group's
    keys go to ``columns``, a NULL key as NaN."""
    relation, weights, _ = side
    keys = [relation.column(ref) for ref in group_by]
    masks = [_any_null(relation.null_mask(ref)) for ref in group_by]
    order, starts = _group_rows(keys, masks)
    first = order[starts]
    for ref, values, mask in zip(group_by, keys, masks):
        key = values[first]
        columns[str(ref)] = key if mask is None else \
            np.where(mask[first], np.nan, key)
    read = any(agg.column is not None for agg in aggregates)
    return _Side(_rows_read(relation, order, read),
                 None if weights is None else weights[order],
                 np.append(starts, len(order)))


def _runs(sides: list[_Side], ref: ColumnRef | None
          ) -> tuple[np.ndarray | None, np.ndarray | None, np.ndarray]:
    """``(values, weights, bounds)`` of ``ref`` on the side exposing it:
    its non-NULL values, their weights and each group's run of them.
    ``None`` stands for the rows ``COUNT(*)`` counts, which have no
    values and are never NULL."""
    relation, weights, bounds = next(
        (side for side in sides[:-1]
         if ref is None or side.relation.exposes(ref)), sides[-1])
    if ref is None:
        return None, weights, bounds
    values = relation.column(ref)
    mask = _any_null(relation.null_mask(ref))
    if mask is None:
        return values, weights, bounds
    keep = ~mask
    values = values[keep]
    # Each bound moves down by the NULLs before it; one group's last
    # bound is just the number of values kept.
    bounds = (_one_group(len(values)) if len(bounds) == 2
              else bounds - np.searchsorted(np.flatnonzero(mask), bounds))
    return values, None if weights is None else weights[keep], bounds


def _fold(function: AggregateFunction, values: np.ndarray | None,
          weights: np.ndarray | None, bounds: np.ndarray) -> np.ndarray:
    """One aggregate per group, as ``float64``: group ``g`` folds its run
    ``values[bounds[g]:bounds[g + 1]]``, value i weighing ``weights[i]``
    (``None``: one).  ``SUM`` and ``AVG`` add in ``float64``; ``COUNT``,
    ``MIN`` and ``MAX`` are exact.  An empty run folds to 0 for
    ``COUNT`` and to NaN for the others.
    """
    starts, ends = bounds[:-1], bounds[1:]
    if function is AggregateFunction.COUNT and weights is None:
        return (ends - starts).astype(np.float64)
    filled = starts < ends
    at = starts[filled]
    if function is AggregateFunction.MIN:
        folded = np.minimum.reduceat(values, at)
    elif function is AggregateFunction.MAX:
        folded = np.maximum.reduceat(values, at)
    elif function is AggregateFunction.COUNT:
        folded = np.add.reduceat(weights, at)
    else:
        folded = np.add.reduceat(
            values.astype(np.float64, copy=False) if weights is None
            else np.multiply(values, weights, dtype=np.float64), at)
        if function is AggregateFunction.AVG:
            folded /= ((ends - starts)[filled] if weights is None
                       else np.add.reduceat(weights, at))
    if len(at) == len(starts):
        return folded.astype(np.float64, copy=False)
    result = np.full(len(starts), 0.0 if function is AggregateFunction.COUNT
                     else np.nan)
    result[filled] = folded
    return result


def execute_plan(database: Database, plan: PhysicalPlan) -> ExecutionResult:
    """Convenience wrapper: ``Executor(database).execute(plan)``."""
    return Executor(database).execute(plan)
