"""Batching of plan graphs for vectorized DAG message passing.

A :class:`GraphBatch` merges many :class:`~repro.featurize.graph.PlanGraph`
objects into one big DAG with batch-global node ids, groups nodes by
*topological level* and, within a level, by node type.  The model then
processes one level at a time with scatter-add child aggregation —
the DeepSets-style bottom-up pass of the paper, fully vectorized.

Batching is split into two stages so training featurizes each graph
exactly once:

* :func:`encode_graph` — the one-time per-graph precompute: scaled
  per-type feature matrices, per-type node positions, node-type codes,
  topological levels and edge arrays, frozen into an
  :class:`EncodedGraph`;
* :func:`merge_encoded` — the cheap per-mini-batch merge: pure numpy
  concatenation plus ``argsort``/``searchsorted`` grouping by level and
  node type, no per-node Python loops.

:func:`batch_graphs` composes the two and stays the convenient one-shot
entry point (used at inference time, where every batch is new anyway).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import FeaturizationError
from repro.featurize.graph import (
    CARDINALITY_FEATURE_INDEX,
    FEATURE_DIMS,
    NODE_TYPES,
    TYPE_CODE_OF,
    PlanGraph,
)
from repro.featurize.scalers import StandardScaler
from repro.util import LRUCache

__all__ = [
    "LevelSpec",
    "GraphBatch",
    "EncodedGraph",
    "LevelPlan",
    "LevelPlanCache",
    "build_level_plan",
    "encode_graph",
    "encode_graphs",
    "merge_encoded",
    "batch_graphs",
    "fit_scalers",
]


@dataclass
class LevelSpec:
    """One topological level of the batched DAG.

    Attributes
    ----------
    parent_ids:
        Batch-global ids of the nodes updated at this level.
    edge_child_ids / edge_parent_slots:
        For every incoming edge of this level: the child's global id and
        the parent's slot (index into ``parent_ids``).
    type_slots:
        For each node type, the slots (into ``parent_ids``) of parents
        of that type — the per-type combine MLP is applied group-wise.
    """

    parent_ids: np.ndarray
    edge_child_ids: np.ndarray
    edge_parent_slots: np.ndarray
    type_slots: dict[str, np.ndarray]


@dataclass
class GraphBatch:
    """A batch of plan graphs ready for the model."""

    num_nodes: int
    features: dict[str, np.ndarray]
    type_positions: dict[str, np.ndarray]
    levels: list[LevelSpec]
    roots: np.ndarray
    targets: np.ndarray | None = None
    graph_sizes: list[int] = field(default_factory=list)
    #: Per-operator log1p cardinality labels, aligned row-for-row with
    #: ``features["plan_op"]`` / ``type_positions["plan_op"]`` (None when
    #: the graphs carry no cardinality labels).
    card_targets: np.ndarray | None = None
    #: Number of ``plan_op`` rows contributed by each graph (prefix-sums
    #: split per-node predictions back into per-plan arrays).
    plan_op_counts: list[int] = field(default_factory=list)
    #: Raw ``log1p(rows)`` feature per ``plan_op`` row (residual base).
    plan_op_log_rows: np.ndarray = field(
        default_factory=lambda: np.zeros(0))
    #: Raw row estimates per ``plan_op`` row (linear-space base).
    plan_op_rows: np.ndarray = field(default_factory=lambda: np.zeros(0))

    @property
    def num_graphs(self) -> int:
        return len(self.roots)


@dataclass
class EncodedGraph:
    """One graph, featurized and (optionally) scaled exactly once.

    Everything :func:`merge_encoded` needs is precomputed here, so a
    training loop can re-batch the same graphs every epoch without ever
    touching the Python-level featurization again.
    """

    num_nodes: int
    #: Per-type feature matrices, already scaled if scalers were given.
    features: dict[str, np.ndarray]
    #: Per-type *local* node ids (row ``i`` of ``features[t]`` is node
    #: ``type_positions[t][i]``).
    type_positions: dict[str, np.ndarray]
    #: Node-type code per node (index into ``NODE_TYPES``).
    type_codes: np.ndarray
    #: Topological level per node (leaves are level 0).
    levels: np.ndarray
    edges_child: np.ndarray
    edges_parent: np.ndarray
    root: int
    target_log_runtime: float | None
    #: Per-``plan_op`` log1p cardinality labels (None if unlabelled).
    target_log_cardinalities: np.ndarray | None = None
    #: Raw (unscaled) ``log1p(rows)`` feature per ``plan_op`` node — the
    #: baseline the residual cardinality head corrects.
    plan_op_log_rows: np.ndarray = field(
        default_factory=lambda: np.zeros(0))
    #: Raw row estimates per ``plan_op`` node (linear space): a zero
    #: correction returns these bit-for-bit.
    plan_op_rows: np.ndarray = field(default_factory=lambda: np.zeros(0))


def fit_scalers(graphs: list[PlanGraph]) -> dict[str, StandardScaler]:
    """Fit per-node-type scalers over a corpus of raw graphs."""
    if not graphs:
        raise FeaturizationError("cannot fit scalers on an empty corpus")
    scalers: dict[str, StandardScaler] = {}
    for node_type in NODE_TYPES:
        matrices = [g.feature_matrix(node_type) for g in graphs]
        stacked = np.concatenate(matrices, axis=0)
        if len(stacked) == 0:
            # Node type absent from the corpus: identity scaling.
            scaler = StandardScaler(
                mean=np.zeros(FEATURE_DIMS[node_type]),
                std=np.ones(FEATURE_DIMS[node_type]),
            )
        else:
            scaler = StandardScaler().fit(stacked)
        scalers[node_type] = scaler
    return scalers


def encode_graph(graph: PlanGraph,
                 scalers: dict[str, StandardScaler] | None = None
                 ) -> EncodedGraph:
    """Precompute everything batching needs from one graph (one time)."""
    type_codes = graph.type_codes()
    features: dict[str, np.ndarray] = {}
    type_positions: dict[str, np.ndarray] = {}
    plan_op_log_rows = np.zeros(0)
    plan_op_rows = np.zeros(0)
    for node_type in NODE_TYPES:
        matrix = graph.feature_matrix(node_type)
        if node_type == "plan_op":
            plan_op_log_rows = matrix[:, CARDINALITY_FEATURE_INDEX].copy()
            if len(graph.plan_op_rows) == len(matrix):
                plan_op_rows = np.asarray(graph.plan_op_rows,
                                          dtype=np.float64)
            else:  # hand-built graphs: recover rows from the log feature
                plan_op_rows = np.expm1(plan_op_log_rows)
        if scalers is not None and len(matrix):
            matrix = scalers[node_type].transform(matrix)
        features[node_type] = matrix
        type_positions[node_type] = np.flatnonzero(
            type_codes == TYPE_CODE_OF[node_type]
        ).astype(np.int64, copy=False)
    if graph.edges:
        edge_array = np.asarray(graph.edges, dtype=np.int64)
        edges_child, edges_parent = edge_array[:, 0], edge_array[:, 1]
    else:
        edges_child = np.zeros(0, dtype=np.int64)
        edges_parent = np.zeros(0, dtype=np.int64)
    return EncodedGraph(
        num_nodes=graph.num_nodes,
        features=features,
        type_positions=type_positions,
        type_codes=type_codes,
        levels=np.asarray(graph.levels(), dtype=np.int64),
        edges_child=edges_child,
        edges_parent=edges_parent,
        root=graph.root,
        target_log_runtime=graph.target_log_runtime,
        target_log_cardinalities=graph.target_log_cardinalities,
        plan_op_log_rows=plan_op_log_rows,
        plan_op_rows=plan_op_rows,
    )


def encode_graphs(graphs: list[PlanGraph],
                  scalers: dict[str, StandardScaler] | None = None
                  ) -> list[EncodedGraph]:
    """Encode a corpus once; the result re-batches arbitrarily often."""
    return [encode_graph(graph, scalers) for graph in graphs]


def _merge_targets(encoded: list[EncodedGraph],
                   require_targets: bool) -> np.ndarray | None:
    labels = [g.target_log_runtime for g in encoded]
    missing = sum(label is None for label in labels)
    if missing == len(labels):
        if require_targets:
            raise FeaturizationError("graph is missing its runtime label")
        return None
    if missing:
        # A mixed list is always a bug: silently dropping the labelled
        # subset used to yield ``targets=None`` with no diagnostic.
        raise FeaturizationError(
            f"{missing} of {len(labels)} graphs are missing runtime labels; "
            f"label all graphs (training) or none (inference)"
        )
    return np.asarray(labels)


def _merge_card_targets(encoded: list[EncodedGraph]) -> np.ndarray | None:
    """Concatenated per-operator cardinality labels (all-or-none)."""
    labels = [g.target_log_cardinalities for g in encoded]
    missing = sum(label is None for label in labels)
    if missing == len(labels):
        return None
    if missing:
        raise FeaturizationError(
            f"{missing} of {len(labels)} graphs are missing cardinality "
            f"labels; label all graphs (training) or none (inference)"
        )
    return np.concatenate(labels)


@dataclass
class LevelPlan:
    """The structural half of a merged batch — everything in
    :class:`GraphBatch` that depends only on the graphs' *shapes*
    (levels, edges, node types), not on their feature values.

    Deriving it is the expensive part of :func:`merge_encoded` (the
    ``argsort``/``searchsorted`` grouping plus the per-level Python
    loop); for a fixed list of graphs it never changes, so a training
    loop that re-batches the same mini-batches every epoch can derive
    it once and reuse it (see :class:`LevelPlanCache`).  Consumers must
    treat every array as read-only — the same plan is shared by every
    batch built from it.
    """

    num_nodes: int
    type_positions: dict[str, np.ndarray]
    levels: list[LevelSpec]
    roots: np.ndarray
    graph_sizes: tuple[int, ...]
    plan_op_counts: tuple[int, ...]


def build_level_plan(encoded: list[EncodedGraph]) -> LevelPlan:
    """Derive the structural merge of ``encoded`` (order-sensitive).

    Pure numpy: stable ``argsort``/``searchsorted`` grouping of nodes
    by level and, within a level, of parents by node type.
    """
    if not encoded:
        raise FeaturizationError("cannot batch zero graphs")

    offsets = np.cumsum([0] + [g.num_nodes for g in encoded])
    num_nodes = int(offsets[-1])
    graph_offsets = offsets[:-1]

    type_positions: dict[str, np.ndarray] = {}
    for node_type in NODE_TYPES:
        positions = [g.type_positions[node_type] + offset
                     for g, offset in zip(encoded, graph_offsets)
                     if len(g.type_positions[node_type])]
        type_positions[node_type] = (np.concatenate(positions) if positions
                                     else np.zeros(0, dtype=np.int64))

    type_codes = np.concatenate([g.type_codes for g in encoded])
    level_arr = np.concatenate([g.levels for g in encoded])
    edges_child_arr = np.concatenate(
        [g.edges_child + offset for g, offset in zip(encoded, graph_offsets)]
    )
    edges_parent_arr = np.concatenate(
        [g.edges_parent + offset for g, offset in zip(encoded, graph_offsets)]
    )
    roots = np.asarray([g.root + offset
                        for g, offset in zip(encoded, graph_offsets)],
                       dtype=np.int64)

    max_level = int(level_arr.max()) if num_nodes else 0

    # Nodes grouped by level, edges grouped by their parent's level.
    # Stable sorts keep ascending-id order within a group, matching the
    # historical per-level boolean-mask scan.
    node_order = np.argsort(level_arr, kind="stable")
    node_group_starts = np.searchsorted(level_arr[node_order],
                                        np.arange(max_level + 2))
    parent_levels = (level_arr[edges_parent_arr] if len(edges_parent_arr)
                     else np.zeros(0, dtype=np.int64))
    edge_order = np.argsort(parent_levels, kind="stable")
    edge_group_starts = np.searchsorted(parent_levels[edge_order],
                                        np.arange(max_level + 2))
    slot_of_node = np.zeros(num_nodes, dtype=np.int64)

    level_specs: list[LevelSpec] = []
    for level in range(1, max_level + 1):
        parent_ids = node_order[node_group_starts[level]:
                                node_group_starts[level + 1]]
        if len(parent_ids) == 0:
            continue
        parent_ids = parent_ids.astype(np.int64, copy=False)
        slot_of_node[parent_ids] = np.arange(len(parent_ids), dtype=np.int64)
        level_edges = edge_order[edge_group_starts[level]:
                                 edge_group_starts[level + 1]]
        edge_children = edges_child_arr[level_edges]
        edge_slots = slot_of_node[edges_parent_arr[level_edges]]

        codes = type_codes[parent_ids]
        slot_order = np.argsort(codes, kind="stable")
        code_starts = np.searchsorted(codes[slot_order],
                                      np.arange(len(NODE_TYPES) + 1))
        type_slots: dict[str, np.ndarray] = {}
        for code, node_type in enumerate(NODE_TYPES):
            slots = slot_order[code_starts[code]:code_starts[code + 1]]
            if len(slots):
                type_slots[node_type] = slots.astype(np.int64, copy=False)
        level_specs.append(LevelSpec(
            parent_ids=parent_ids,
            edge_child_ids=edge_children,
            edge_parent_slots=edge_slots,
            type_slots=type_slots,
        ))

    return LevelPlan(
        num_nodes=num_nodes,
        type_positions=type_positions,
        levels=level_specs,
        roots=roots,
        graph_sizes=tuple(g.num_nodes for g in encoded),
        plan_op_counts=tuple(len(g.features["plan_op"]) for g in encoded),
    )


class LevelPlanCache(LRUCache):
    """LRU of :class:`LevelPlan` objects keyed by graph-set identity.

    The key is the ordered tuple of ``id()``s of the encoded graphs —
    a batch's level plan is valid only for exactly that list of graph
    objects in exactly that order.  Every entry **pins** the graph
    objects themselves, so a cached key's ids cannot be recycled while
    the entry lives (the same idiom as the learned-cardinality
    estimator's per-query cache); eviction releases plan and pins
    together.  The shared :class:`~repro.util.LRUCache` lock makes
    lookups safe from concurrent serving threads sharing one model.
    """

    def __init__(self, max_entries: int = 64):
        if max_entries <= 0:
            raise FeaturizationError(
                f"max_entries must be positive, got {max_entries}")
        super().__init__(max_entries)

    def level_plan(self, encoded: list[EncodedGraph]) -> LevelPlan:
        """The level plan for ``encoded``, derived at most once."""
        key = tuple(id(graph) for graph in encoded)
        entry = self.get(key)
        if entry is not None:
            return entry[1]
        plan = build_level_plan(encoded)
        self.put(key, (tuple(encoded), plan))
        return plan


def merge_encoded(encoded: list[EncodedGraph],
                  require_targets: bool = False,
                  level_cache: LevelPlanCache | None = None) -> GraphBatch:
    """Merge pre-encoded graphs into a :class:`GraphBatch` (cheap).

    The structural half (level grouping, edge slots, type positions)
    comes from :func:`build_level_plan` — or, with ``level_cache``,
    from a cached :class:`LevelPlan` when the exact same graph list
    was merged before (fixed train/validation batches re-merged every
    epoch).  Only the feature and target concatenations run per call,
    so a cache hit skips the argsort/searchsorted grouping and the
    per-level Python loop entirely.  Cached or not, the resulting
    batch is bit-identical.
    """
    if not encoded:
        raise FeaturizationError("cannot batch zero graphs")
    if level_cache is not None:
        plan = level_cache.level_plan(encoded)
    else:
        plan = build_level_plan(encoded)

    features: dict[str, np.ndarray] = {}
    for node_type in NODE_TYPES:
        matrices = [g.features[node_type] for g in encoded
                    if len(g.features[node_type])]
        features[node_type] = (np.concatenate(matrices, axis=0) if matrices
                               else np.zeros((0, FEATURE_DIMS[node_type])))

    return GraphBatch(
        num_nodes=plan.num_nodes,
        features=features,
        type_positions=plan.type_positions,
        levels=plan.levels,
        roots=plan.roots,
        targets=_merge_targets(encoded, require_targets),
        graph_sizes=list(plan.graph_sizes),
        card_targets=_merge_card_targets(encoded),
        plan_op_counts=list(plan.plan_op_counts),
        plan_op_log_rows=np.concatenate([g.plan_op_log_rows
                                         for g in encoded]),
        plan_op_rows=np.concatenate([g.plan_op_rows for g in encoded]),
    )


def batch_graphs(graphs: list[PlanGraph],
                 scalers: dict[str, StandardScaler] | None = None,
                 require_targets: bool = False) -> GraphBatch:
    """Merge graphs into one batch (optionally scaling features).

    One-shot convenience over :func:`encode_graphs` +
    :func:`merge_encoded`; training loops should encode once and merge
    per mini-batch instead.
    """
    if not graphs:
        raise FeaturizationError("cannot batch zero graphs")
    return merge_encoded(encode_graphs(graphs, scalers), require_targets)
