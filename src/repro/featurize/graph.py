"""The paper's transferable graph encoding (Figure 2).

A physical plan is encoded as a heterogeneous DAG:

* one **plan_op** node per physical operator (one-hot operator kind,
  log cardinality, log tuple width),
* a **table** node per scanned table (log tuples, log pages, log width),
* a **column** node per referenced column (data-type one-hot, byte
  width, log distinct count, null fraction),
* a **predicate** node per filter (comparison-operator one-hot, IN-list
  size) — literal *values* are deliberately **not** encoded; their effect
  enters through cardinalities (separation of concerns, §2.2),
* an **aggregate** node per aggregate function (function one-hot),
* an **index** node per index used by a scan (log height, log leaf
  pages, uniqueness) — the extension the paper proposes for what-if
  index tuning,
* optionally one **system** node per plan (log timing coefficients of
  the :class:`~repro.runtime.system.SystemParameters` machine, fanned
  out to every ``plan_op`` node) — the hardware-transfer extension of
  §4.3.  Off by default (``ZeroShotFeaturizer(system_features=False)``)
  and bit-identical to the historical encoding when off.

Every feature is consistent across databases: nothing identifies *which*
table or column is meant, only its physical characteristics.  The same
holds for the system node: nothing identifies *which* machine, only its
measurable coefficients.  That is the property that lets one model serve
unseen databases — and, with system features on, unseen hardware.

The walk over the plan is the only per-node work: each node is appended
to :class:`PlanGraph` as a plain row of floats, and the graph records
each type's rows and node ids as they arrive.  Turning a graph into
arrays (:meth:`PlanGraph.feature_matrix`,
:func:`repro.featurize.batch.encode_graph`) is then one array call per
node type, never one per node.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.db.database import Database
from repro.db.types import DataType
from repro.errors import FeaturizationError
from repro.featurize.vocabulary import (
    COMPARISON_INDEX,
    OPERATOR_INDEX,
    OPERATOR_KINDS,
    check_runtime_label,
    scan_predicates,
)
from repro.plans.operators import (
    HashAggregate,
    HashJoin,
    IndexScan,
    NestedLoopJoin,
    PlainAggregate,
    PlanNode,
    SeqScan,
)
from repro.plans.plan import PhysicalPlan
from repro.runtime.system import SystemParameters
from repro.sql.ast import AggregateFunction, ColumnRef, ComparisonOperator

__all__ = ["CARDINALITY_FEATURE_INDEX", "CardinalitySource", "PlanGraph",
           "ZeroShotFeaturizer", "NODE_TYPES", "FEATURE_DIMS",
           "SYSTEM_FEATURE_FIELDS", "TYPE_CODE_OF", "node_levels"]


class CardinalitySource(enum.Enum):
    """Where per-operator cardinality features come from.

    ``ESTIMATED`` uses the optimizer's histogram-based estimates (the
    deployable configuration); ``ACTUAL`` uses true cardinalities (the
    paper's upper baseline, from execution or a data-driven model).
    """

    ESTIMATED = "estimated"
    ACTUAL = "actual"


_DATATYPE_INDEX = {dt: i for i, dt in enumerate(DataType)}
_AGGREGATE_INDEX = {fn: i for i, fn in enumerate(AggregateFunction)}

#: ``system`` appended last so the historical type codes (and therefore
#: every encoding with system features off) are byte-for-byte unchanged.
NODE_TYPES = ("plan_op", "table", "column", "predicate", "aggregate",
              "index", "system")

#: :class:`~repro.runtime.system.SystemParameters` fields encoded on a
#: ``system`` node, in feature order.  All are *measurable physical
#: coefficients* — per-tuple CPU times, page-read latencies, cache and
#: working-memory capacities — so they transfer across machines the
#: same way table statistics transfer across databases.
SYSTEM_FEATURE_FIELDS = (
    "cpu_tuple_s", "cpu_predicate_s", "cpu_index_tuple_s", "hash_build_s",
    "hash_probe_s", "aggregate_update_s", "nested_loop_compare_s",
    "seq_page_read_s", "random_page_read_s", "buffer_pool_pages",
    "hot_miss_fraction", "work_mem_tuples", "spill_tuple_s",
    "cpu_cache_tuples", "cache_thrash_factor", "query_overhead_s",
)

#: Integer code per node type (index into ``NODE_TYPES``) — the batcher
#: groups nodes with integer sorts instead of string comparisons.
TYPE_CODE_OF = {t: i for i, t in enumerate(NODE_TYPES)}

FEATURE_DIMS = {
    "plan_op": len(OPERATOR_KINDS) + 3,   # one-hot + inl flag + rows + width
    "table": 3,
    "column": len(_DATATYPE_INDEX) + 3,
    "predicate": len(COMPARISON_INDEX) + 1,
    "aggregate": len(_AGGREGATE_INDEX) + 1,
    "index": 3,
    "system": len(SYSTEM_FEATURE_FIELDS),
}

#: Column of the ``plan_op`` feature vector holding ``log1p(rows)`` —
#: the cardinality head predicts a *correction* relative to this value
#: (residual learning over the optimizer's estimate), and the ablations
#: zero it out to measure its contribution.
CARDINALITY_FEATURE_INDEX = len(OPERATOR_KINDS) + 1

_INL_FEATURE_INDEX = len(OPERATOR_KINDS)
_WIDTH_FEATURE_INDEX = len(OPERATOR_KINDS) + 2

#: The matrix of a node type with no nodes; zero-sized, so sharing one
#: per type among every graph is safe.
_NO_ROWS = {t: np.zeros((0, FEATURE_DIMS[t])) for t in NODE_TYPES}


def _log(value: float) -> float:
    return math.log1p(max(float(value), 0.0))


def node_levels(num_nodes: int, edges: list[tuple[int, int]]) -> list[int]:
    """Level per node of a DAG given as ``(child, parent)`` edges:
    leaves 0, parents 1 + max(children).  The one levelling every
    batched bottom-up pass (zero-shot graphs, E2E trees) is built on.

    A longest-path relaxation over the edge list: a pass raises every
    parent above its child, until a pass changes nothing.  Featurizers
    list a node's incoming edges after every edge into its children, so
    their graphs take one pass plus the confirming one; any order takes
    at most ``num_nodes`` passes (a longest path has fewer edges than
    there are nodes), and a cycle never settles.
    """
    level = [0] * num_nodes
    for _ in range(num_nodes + 1):
        changed = False
        for child, parent in edges:
            if level[parent] <= level[child]:
                level[parent] = level[child] + 1
                changed = True
        if not changed:
            return level
    raise FeaturizationError("cycle detected in plan graph")


@dataclass
class PlanGraph:
    """One featurized plan (raw, unscaled features).

    ``features[t]`` holds the rows of the nodes of type ``t`` and
    ``type_positions[t]`` their node ids, both in insertion order.
    """

    features: dict[str, list[Sequence[float]]] = field(
        default_factory=lambda: {t: [] for t in NODE_TYPES})
    type_positions: dict[str, list[int]] = field(
        init=False, default_factory=lambda: {t: [] for t in NODE_TYPES})
    node_type_of: list[str] = field(default_factory=list)
    type_row_of: list[int] = field(default_factory=list)
    edges: list[tuple[int, int]] = field(default_factory=list)
    root: int = -1
    target_log_runtime: float | None = None
    #: Per-operator log1p cardinality labels, one per ``plan_op`` node in
    #: insertion (plan pre-)order — supervision for the multi-task
    #: cardinality head; ``None`` for runtime-only graphs.
    target_log_cardinalities: np.ndarray | None = None
    #: Raw per-operator row estimates (same order) — kept alongside the
    #: log feature so a zero residual correction reproduces the
    #: optimizer's estimate bit-for-bit instead of via exp(log(x)).
    plan_op_rows: list[float] = field(default_factory=list)

    @property
    def num_nodes(self) -> int:
        return len(self.node_type_of)

    def add_node(self, node_type: str, features: Sequence[float]) -> int:
        """Append one node's feature row; returns its node id."""
        expected = FEATURE_DIMS[node_type]
        if len(features) != expected:
            raise FeaturizationError(
                f"{node_type} features must have shape ({expected},), "
                f"got ({len(features)},)"
            )
        node_id = self.num_nodes
        rows = self.features[node_type]
        self.node_type_of.append(node_type)
        self.type_row_of.append(len(rows))
        self.type_positions[node_type].append(node_id)
        rows.append(features)
        return node_id

    def add_edge(self, child: int, parent: int) -> None:
        if child == parent:
            raise FeaturizationError("self edges are not allowed")
        self.edges.append((child, parent))

    def type_codes(self) -> np.ndarray:
        """Node-type code per node (index into ``NODE_TYPES``)."""
        return np.asarray([TYPE_CODE_OF[t] for t in self.node_type_of],
                          dtype=np.int64)

    def feature_matrix(self, node_type: str) -> np.ndarray:
        """The rows of ``node_type`` as one ``(n, dim)`` array."""
        rows = self.features[node_type]
        if not rows:
            return _NO_ROWS[node_type]
        return np.array(rows, dtype=np.float64)

    def levels(self) -> list[int]:
        """Level per node: leaves 0, parents 1 + max(children)."""
        return node_levels(self.num_nodes, self.edges)


class ZeroShotFeaturizer:
    """Builds :class:`PlanGraph` objects from physical plans.

    With ``system_features=True`` every encoded plan additionally gets
    one ``system`` node carrying the machine's timing coefficients (the
    per-call ``system`` argument, else the featurizer's default
    ``system``, else the stock machine), with an edge into every
    ``plan_op`` node — each operator's combine step sees the hardware
    it runs on.  With the flag off (the default) the encoding is
    bit-identical to the historical one, golden-snapshot guarded.
    """

    def __init__(self, cardinality_source: CardinalitySource =
                 CardinalitySource.ESTIMATED,
                 system_features: bool = False,
                 system: SystemParameters | None = None):
        self.cardinality_source = cardinality_source
        self.system_features = system_features
        self.system = system
        if system is not None and not system_features:
            raise FeaturizationError(
                "a system was given but system_features is off; pass "
                "system_features=True to encode machine coefficients"
            )

    # ------------------------------------------------------------------
    def featurize(self, plan: PhysicalPlan, database: Database,
                  target_runtime_seconds: float | None = None,
                  operator_cardinalities: "Sequence[float] | None" = None,
                  system: SystemParameters | None = None) -> PlanGraph:
        """Encode a plan (optionally with runtime / cardinality labels).

        ``operator_cardinalities`` are the true output cardinalities of
        every plan operator in pre-order (what
        :class:`~repro.workload.runner.WorkloadRunner` records as
        ``operator_cardinalities``); they become per-``plan_op``-node
        log1p labels for the cardinality head.  ``system`` overrides the
        featurizer's default machine for this plan (training corpora
        collected across several machines featurize each record under
        the machine that produced its label).
        """
        if database.name != plan.database_name:
            raise FeaturizationError(
                f"plan was built for {plan.database_name!r}, "
                f"featurizer got database {database.name!r}"
            )
        if system is not None and not self.system_features:
            raise FeaturizationError(
                "a system was given but system_features is off; build the "
                "featurizer with system_features=True"
            )
        graph = PlanGraph()
        column_cache: dict[str, int] = {}
        graph.root = self._encode_operator(plan.root, plan.query, database,
                                           graph, column_cache)
        if self.system_features:
            self._attach_system(system or self.system or SystemParameters(),
                                graph)
        if target_runtime_seconds is not None:
            check_runtime_label(target_runtime_seconds)
            graph.target_log_runtime = math.log(target_runtime_seconds)
        if operator_cardinalities is not None:
            cards = np.asarray(operator_cardinalities, dtype=np.float64)
            num_ops = len(graph.features["plan_op"])
            if cards.shape != (num_ops,):
                raise FeaturizationError(
                    f"plan has {num_ops} operators but "
                    f"{cards.size} cardinality labels were given"
                )
            invalid = cards[~(np.isfinite(cards) & (cards >= 0))]
            if len(invalid):
                raise FeaturizationError(
                    f"operator cardinalities must be finite and "
                    f"non-negative, got {invalid[0]}"
                )
            # plan_op nodes are added in the same pre-order the executor
            # (and walk_plan) traverse, so labels align row-for-row.
            graph.target_log_cardinalities = np.log1p(cards)
        return graph

    def featurize_shared(self, roots: Sequence[PlanNode], query,
                         database: Database
                         ) -> tuple[PlanGraph, list[int]]:
        """Encode many plan roots — sharing subplan *objects* — into ONE
        graph, featurizing every distinct subplan exactly once.

        The learned-cardinality estimator's canonical fragment plans
        share scan and left-deep-prefix subtrees by construction; an
        identity memo (``id(node)`` → graph node id) turns the forest
        into a merged DAG where each shared subtree contributes its
        plan-op/table/predicate nodes a single time, and one global
        column cache dedups column nodes across all roots.  Returns the
        graph plus each root's ``plan_op`` node id (read a root's
        prediction at ``graph.type_row_of[root_id]``).

        Encoding a node inside a merged DAG is bit-identical to
        encoding it in its own graph: the per-node feature rows are the
        same, the DeepSets child aggregation sums over the same edges
        in the same insertion order, and the forward pass is
        batch-size-invariant (``repro.nn.tensor._stable_matmul``), so a
        subtree's hidden state does not depend on what else shares the
        graph.
        """
        if not roots:
            raise FeaturizationError("cannot featurize zero plan roots")
        graph = PlanGraph()
        column_cache: dict[str, int] = {}
        node_cache: dict[int, int] = {}
        root_ids = [self._encode_operator(root, query, database, graph,
                                          column_cache, node_cache)
                    for root in roots]
        graph.root = root_ids[-1]
        if self.system_features:
            # One shared machine node: every fragment runs on the same
            # hardware, exactly as every subtree shares its column nodes.
            self._attach_system(self.system or SystemParameters(), graph)
        return graph, root_ids

    # ------------------------------------------------------------------
    # Node encoders
    # ------------------------------------------------------------------
    def _rows(self, node: PlanNode) -> float:
        return node.rows(self.cardinality_source is CardinalitySource.ACTUAL)

    def _encode_operator(self, node: PlanNode, query, database: Database,
                         graph: PlanGraph, column_cache: dict[str, int],
                         node_cache: dict[int, int] | None = None) -> int:
        if node_cache is not None:
            cached = node_cache.get(id(node))
            if cached is not None:
                return cached
        features = [0.0] * FEATURE_DIMS["plan_op"]
        features[OPERATOR_INDEX[node.operator_name]] = 1.0
        if isinstance(node, NestedLoopJoin) and node.is_index_nested_loop:
            features[_INL_FEATURE_INDEX] = 1.0
        rows = self._rows(node)
        features[CARDINALITY_FEATURE_INDEX] = _log(rows)
        features[_WIDTH_FEATURE_INDEX] = _log(node.est_width)
        op_id = graph.add_node("plan_op", features)
        graph.plan_op_rows.append(max(float(rows), 0.0))

        for child in node.children:
            child_id = self._encode_operator(child, query, database, graph,
                                             column_cache, node_cache)
            graph.add_edge(child_id, op_id)

        if isinstance(node, SeqScan):
            self._attach_table(node.table.table_name, database, graph, op_id)
            for predicate in scan_predicates(node):
                self._attach_predicate(predicate, query, database, graph,
                                       op_id, column_cache)
        elif isinstance(node, IndexScan):
            self._attach_table(node.table.table_name, database, graph, op_id)
            self._attach_index(node, database, graph, op_id)
            for predicate in scan_predicates(node):
                self._attach_predicate(predicate, query, database, graph,
                                       op_id, column_cache)
            if node.lookup_column is not None:
                indexed = ColumnRef(node.table.name, node.index_column)
                column_id = self._attach_column(indexed, query, database,
                                                graph, column_cache)
                graph.add_edge(column_id, op_id)
        elif isinstance(node, (HashJoin, NestedLoopJoin)):
            for side in (node.condition.left, node.condition.right):
                column_id = self._attach_column(side, query, database, graph,
                                                column_cache)
                graph.add_edge(column_id, op_id)
        elif isinstance(node, (HashAggregate, PlainAggregate)):
            for aggregate in node.aggregates:
                agg_features = [0.0] * FEATURE_DIMS["aggregate"]
                agg_features[_AGGREGATE_INDEX[aggregate.function]] = 1.0
                if aggregate.column is not None:
                    agg_features[-1] = 1.0
                agg_id = graph.add_node("aggregate", agg_features)
                if aggregate.column is not None:
                    column_id = self._attach_column(aggregate.column, query,
                                                    database, graph,
                                                    column_cache)
                    graph.add_edge(column_id, agg_id)
                graph.add_edge(agg_id, op_id)
            if isinstance(node, HashAggregate):
                for column in node.group_by:
                    column_id = self._attach_column(column, query, database,
                                                    graph, column_cache)
                    graph.add_edge(column_id, op_id)
        if node_cache is not None:
            node_cache[id(node)] = op_id
        return op_id

    def _attach_system(self, system: SystemParameters,
                       graph: PlanGraph) -> int:
        """One machine node, fanned out to every ``plan_op`` node."""
        features = [math.log(max(float(getattr(system, name)), 1e-12))
                    for name in SYSTEM_FEATURE_FIELDS]
        system_id = graph.add_node("system", features)
        for op_id in graph.type_positions["plan_op"]:
            graph.add_edge(system_id, op_id)
        return system_id

    def _attach_table(self, table_name: str, database: Database,
                      graph: PlanGraph, parent: int) -> None:
        data = database.table_data(table_name)
        features = [
            _log(data.num_rows),
            _log(data.num_pages),
            _log(data.table.tuple_width_bytes),
        ]
        table_id = graph.add_node("table", features)
        graph.add_edge(table_id, parent)

    def _attach_index(self, node: IndexScan, database: Database,
                      graph: PlanGraph, parent: int) -> None:
        index = database.indexes.get(node.index_name)
        if index is None:
            raise FeaturizationError(f"plan references unknown index "
                                     f"{node.index_name!r}")
        features = [
            _log(index.height),
            _log(index.num_leaf_pages),
            1.0 if index.unique else 0.0,
        ]
        index_id = graph.add_node("index", features)
        graph.add_edge(index_id, parent)

    def _attach_column(self, ref: ColumnRef, query, database: Database,
                       graph: PlanGraph, column_cache: dict[str, int]) -> int:
        key = str(ref)
        if key in column_cache:
            return column_cache[key]
        table_name = query.table_ref(ref.table).table_name
        column = database.schema.table(table_name).column(ref.column)
        stats = database.table_statistics(table_name).column(ref.column)
        features = [0.0] * len(_DATATYPE_INDEX)
        features[_DATATYPE_INDEX[column.data_type]] = 1.0
        features += (float(column.width_bytes), _log(stats.num_distinct),
                     float(stats.null_fraction))
        column_id = graph.add_node("column", features)
        column_cache[key] = column_id
        return column_id

    def _attach_predicate(self, predicate, query, database: Database,
                          graph: PlanGraph, parent: int,
                          column_cache: dict[str, int]) -> None:
        features = [0.0] * FEATURE_DIMS["predicate"]
        features[COMPARISON_INDEX[predicate.operator]] = 1.0
        if predicate.operator is ComparisonOperator.IN:
            features[-1] = _log(len(predicate.value))
        predicate_id = graph.add_node("predicate", features)
        column_id = self._attach_column(predicate.column, query, database,
                                        graph, column_cache)
        graph.add_edge(column_id, predicate_id)
        graph.add_edge(predicate_id, parent)
