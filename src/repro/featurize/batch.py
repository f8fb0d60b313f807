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
  topological levels, edge arrays and edge ranks, frozen into an
  :class:`EncodedGraph`.  The per-node work was done by the
  featurizer's walk, which left one list of rows and one of node ids
  per type, so this is a fixed number of array calls per node type
  plus one pass over the edge list;
* :func:`merge_encoded` — the cheap per-mini-batch merge: pure numpy
  concatenation plus ``argsort``/``searchsorted`` grouping by level and
  node type, no per-node (and no per-graph) Python loops.

Child aggregation runs in **rank rounds** (see
:class:`repro.nn.tensor.RowSums`): round ``k`` of a level adds the
``k``-th child of every parent that has one, so a round touches each
parent once (a gather and an add, not ``ufunc.at``) while every parent
still adds its children left to right in edge order.  An edge's rank
within its parent is graph-local, so :class:`EncodedGraph` records it
once per graph and :func:`build_level_plan` gets every level's rounds
from the one sort that groups the edges by level anyway.

The zero-shot model runs both stages on every path, inference
included: its ``encode`` (what the serving tier caches) is
:func:`encode_graphs` under its fitted scalers, and its ``collate`` is
:func:`merge_encoded`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import FeaturizationError
from repro.featurize.graph import (
    CARDINALITY_FEATURE_INDEX,
    FEATURE_DIMS,
    NODE_TYPES,
    PlanGraph,
)
from repro.featurize.scalers import StandardScaler
from repro.nn.tensor import RowSums, rank_rounds
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
        the parent's slot (index into ``parent_ids``).  Edges are listed
        rank-major — every parent's first child, then every second
        child, ... — so each parent's children keep their edge order.
    type_slots:
        For each node type, the slots (into ``parent_ids``) of parents
        of that type — the per-type combine MLP is applied group-wise.
    child_sums:
        The rank rounds of the child sum (``Tensor.gather_sum``): child
        ids summed into parent slots, consecutive slices of the edge
        arrays.
    grad_sums:
        The rounds of its backward pass: parent slots summed into child
        ids.  A child shared by several parents of the level sums their
        gradients in batch edge order; one round when none is shared.

    Both are derived from the edge arrays when left out.
    """

    parent_ids: np.ndarray
    edge_child_ids: np.ndarray
    edge_parent_slots: np.ndarray
    type_slots: dict[str, np.ndarray]
    child_sums: RowSums | None = None
    grad_sums: RowSums | None = None

    def __post_init__(self):
        if self.child_sums is None:
            self.child_sums = rank_rounds(self.edge_child_ids,
                                          self.edge_parent_slots)
        if self.grad_sums is None:
            self.grad_sums = rank_rounds(self.edge_parent_slots,
                                         self.edge_child_ids)


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
    #: Per edge, its rank among the edges into the same parent (the
    #: round of the child sum it is added in).  Graph-local, so it is
    #: derived here once, in one pass over the edges with the rank
    #: below, and merely concatenated per batch.
    edge_parent_ranks: np.ndarray = field(init=False, repr=False)
    #: Per edge, its rank among the edges out of the same child into
    #: parents of the same level (the round of the backward pass).
    edge_child_ranks: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        # One pass over the edges, counting each parent's and each
        # (child, parent level)'s edges so far.
        levels = self.levels.tolist()
        into_parent: dict[int, int] = {}
        out_of_child: dict[tuple[int, int], int] = {}
        parent_ranks: list[int] = []
        child_ranks: list[int] = []
        for child, parent in zip(self.edges_child.tolist(),
                                 self.edges_parent.tolist()):
            rank = into_parent.get(parent, 0)
            into_parent[parent] = rank + 1
            parent_ranks.append(rank)
            key = (child, levels[parent])
            rank = out_of_child.get(key, 0)
            out_of_child[key] = rank + 1
            child_ranks.append(rank)
        self.edge_parent_ranks = np.array(parent_ranks, dtype=np.int64)
        self.edge_child_ranks = np.array(child_ranks, dtype=np.int64)


def fit_scalers(graphs: list[PlanGraph]) -> dict[str, StandardScaler]:
    """Fit per-node-type scalers over a corpus of raw graphs."""
    if not graphs:
        raise FeaturizationError("cannot fit scalers on an empty corpus")
    scalers: dict[str, StandardScaler] = {}
    for node_type in NODE_TYPES:
        rows = [row for g in graphs for row in g.features[node_type]]
        if not rows:
            # Node type absent from the corpus: identity scaling.
            scaler = StandardScaler(
                mean=np.zeros(FEATURE_DIMS[node_type]),
                std=np.ones(FEATURE_DIMS[node_type]),
            )
        else:
            scaler = StandardScaler().fit(np.array(rows, dtype=np.float64))
        scalers[node_type] = scaler
    return scalers


def encode_graph(graph: PlanGraph,
                 scalers: dict[str, StandardScaler] | None = None
                 ) -> EncodedGraph:
    """Precompute everything batching needs from one graph (one time):
    a fixed number of array calls per node type, none per node."""
    features: dict[str, np.ndarray] = {}
    type_positions: dict[str, np.ndarray] = {}
    plan_op_log_rows = np.zeros(0)
    plan_op_rows = np.zeros(0)
    for node_type in NODE_TYPES:
        matrix = graph.feature_matrix(node_type)
        type_positions[node_type] = np.array(graph.type_positions[node_type],
                                             dtype=np.int64)
        if not len(matrix):
            features[node_type] = matrix
            continue
        if node_type == "plan_op":
            plan_op_log_rows = matrix[:, CARDINALITY_FEATURE_INDEX].copy()
            if len(graph.plan_op_rows) == len(matrix):
                plan_op_rows = np.array(graph.plan_op_rows,
                                        dtype=np.float64)
            else:  # hand-built graphs: recover rows from the log feature
                plan_op_rows = np.expm1(plan_op_log_rows)
        if scalers is not None:
            matrix = scalers[node_type].transform(matrix)
        features[node_type] = matrix
    if graph.edges:
        edge_array = np.array(graph.edges, dtype=np.int64)
        edges_child, edges_parent = edge_array[:, 0], edge_array[:, 1]
    else:
        edges_child = np.zeros(0, dtype=np.int64)
        edges_parent = np.zeros(0, dtype=np.int64)
    return EncodedGraph(
        num_nodes=graph.num_nodes,
        features=features,
        type_positions=type_positions,
        type_codes=graph.type_codes(),
        levels=np.array(graph.levels(), dtype=np.int64),
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

    Pure numpy over the concatenated graphs: three ``argsort``s group
    the nodes by type, the nodes by level and the edges by (parent
    level, rank within the parent); every level's arrays and child-sum
    rounds are then slices of those orders.  Only a level that mixes
    node types (its parents by type) or shares a child among its
    parents (the backward rounds) sorts again.
    """
    if not encoded:
        raise FeaturizationError("cannot batch zero graphs")

    sizes = np.fromiter((g.num_nodes for g in encoded), dtype=np.int64,
                        count=len(encoded))
    graph_offsets = np.cumsum(sizes) - sizes
    num_nodes = int(sizes.sum())
    edge_offsets = np.repeat(graph_offsets,
                             [len(g.edges_child) for g in encoded])

    type_codes = np.concatenate([g.type_codes for g in encoded])
    level_arr = np.concatenate([g.levels for g in encoded])
    edges_child = np.concatenate([g.edges_child for g in encoded])
    edges_child += edge_offsets
    edges_parent = np.concatenate([g.edges_parent for g in encoded])
    edges_parent += edge_offsets
    parent_ranks = np.concatenate([g.edge_parent_ranks for g in encoded])
    child_ranks = np.concatenate([g.edge_child_ranks for g in encoded])
    roots = np.fromiter((g.root for g in encoded), dtype=np.int64,
                        count=len(encoded)) + graph_offsets

    # Stable sorts keep ascending-id order within a group.
    num_types = len(NODE_TYPES)
    by_type = np.argsort(type_codes, kind="stable")
    type_starts = np.searchsorted(type_codes[by_type],
                                  np.arange(num_types + 1)).tolist()
    type_positions = {
        node_type: by_type[type_starts[code]:type_starts[code + 1]]
        for code, node_type in enumerate(NODE_TYPES)
    }

    num_levels = int(level_arr.max()) + 1 if num_nodes else 1
    node_order = np.argsort(level_arr, kind="stable")
    ordered_levels = level_arr[node_order]
    node_starts = np.searchsorted(ordered_levels, np.arange(num_levels + 1))
    ordered_codes = type_codes[node_order]
    # Parents per (level, type): tells a single-type level (its slots are
    # 0..n-1, no sort) from a mixed one without touching its nodes.
    type_counts = np.bincount(
        ordered_levels * num_types + ordered_codes,
        minlength=num_levels * num_types,
    ).reshape(num_levels, num_types).tolist()
    slot_of_node = np.empty(num_nodes, dtype=np.int64)
    slot_of_node[node_order] = (np.arange(num_nodes)
                                - node_starts[ordered_levels])
    node_starts = node_starts.tolist()

    # Edges by (parent level, rank within the parent), and within a
    # round by (children of the parent, descending; parent id): one
    # level's edges are contiguous, so is every rank round within them,
    # and the parents a round still reaches are a prefix of the parents
    # of the round before (``RowSums``).  Keys are unique per edge.
    fan_in = np.bincount(edges_parent, minlength=num_nodes)[edges_parent]
    num_ranks = int(parent_ranks.max()) + 1 if len(parent_ranks) else 1
    round_keys = level_arr[edges_parent] * num_ranks + parent_ranks
    edge_order = np.argsort(
        (round_keys * (num_ranks + 1) - fan_in) * num_nodes + edges_parent)
    round_starts = np.searchsorted(
        round_keys[edge_order], np.arange(num_levels * num_ranks + 1)).tolist()
    ordered_children = edges_child[edge_order]
    ordered_slots = slot_of_node[edges_parent[edge_order]]
    ordered_child_ranks = child_ranks[edge_order]

    level_specs: list[LevelSpec] = []
    for level in range(1, num_levels):
        first, last = node_starts[level], node_starts[level + 1]
        if first == last:
            continue
        parent_ids = node_order[first:last]

        bounds = round_starts[level * num_ranks:(level + 1) * num_ranks + 1]
        edge_children = ordered_children[bounds[0]:bounds[-1]]
        edge_slots = ordered_slots[bounds[0]:bounds[-1]]
        child_sums = RowSums(
            ordered_slots[bounds[0]:bounds[1]],
            tuple(ordered_children[start:stop]
                  for start, stop in zip(bounds[:-1], bounds[1:])
                  if stop > start))
        ranks = ordered_child_ranks[bounds[0]:bounds[-1]]
        if ranks.any():  # a child shared among this level's parents
            grad_sums = rank_rounds(edge_slots, edge_children, ranks)
        else:
            grad_sums = RowSums(edge_children, (edge_slots,))

        counts = type_counts[level]
        type_slots: dict[str, np.ndarray] = {}
        if max(counts) == last - first:
            type_slots[NODE_TYPES[counts.index(last - first)]] = \
                np.arange(last - first)
        else:
            slot_order = np.argsort(ordered_codes[first:last], kind="stable")
            start = 0
            for node_type, count in zip(NODE_TYPES, counts):
                if count:
                    type_slots[node_type] = slot_order[start:start + count]
                    start += count
        level_specs.append(LevelSpec(
            parent_ids=parent_ids,
            edge_child_ids=edge_children,
            edge_parent_slots=edge_slots,
            type_slots=type_slots,
            child_sums=child_sums,
            grad_sums=grad_sums,
        ))

    return LevelPlan(
        num_nodes=num_nodes,
        type_positions=type_positions,
        levels=level_specs,
        roots=roots,
        graph_sizes=tuple(sizes.tolist()),
        plan_op_counts=tuple(len(g.features["plan_op"]) for g in encoded),
    )


class LevelPlanCache(LRUCache):
    """LRU of :class:`LevelPlan` objects keyed by graph-set identity.

    The key is the ordered tuple of ``id()``s of the encoded graphs —
    a batch's level plan is valid only for exactly that list of graph
    objects in exactly that order.  Every entry **pins** the graph
    objects themselves, so a cached key's ids cannot be recycled while
    the entry lives (the same idiom as the serving tier's encode
    cache, whose entries pin the request object); eviction releases
    plan and pins together.  The shared :class:`~repro.util.LRUCache`
    lock makes lookups safe from concurrent serving threads sharing one
    model.
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
