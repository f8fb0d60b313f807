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
once per graph and :func:`_level_plan` gets every level's rounds
from the one sort that groups the edges by level anyway.

The zero-shot model runs both stages on every path, training and
inference alike: its ``encode`` (what the serving tier caches) is
:func:`encode_graphs` under its fitted scalers, and its ``collate`` is
:func:`merge_encoded`.  A merge builds only what a forward off the tape
reads (the backward rounds wait for a backward pass), and a large
enough batch holds one node per distinct subtree
(:func:`_share_subtrees`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

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
        The rank rounds of the child sum (:func:`repro.nn.tensor.gather_sum`):
        child ids summed into parent slots, consecutive slices of the
        edge arrays.  Derived from the edge arrays when left out.
    edge_child_ranks:
        Per listed edge, its rank among the edges out of the same child
        (the round of the backward pass it is added in, see
        :attr:`grad_sums`); None ranks them in listed order.
    """

    parent_ids: np.ndarray
    edge_child_ids: np.ndarray
    edge_parent_slots: np.ndarray
    type_slots: dict[str, np.ndarray]
    child_sums: RowSums | None = None
    edge_child_ranks: np.ndarray | None = None

    def __post_init__(self):
        if self.child_sums is None:
            self.child_sums = rank_rounds(self.edge_child_ids,
                                          self.edge_parent_slots)

    @cached_property
    def grad_sums(self) -> RowSums:
        """The rounds of the child sum's backward pass: parent slots
        summed into child ids.  A child shared by several parents of
        the level sums their gradients in ``edge_child_ranks`` order;
        one round when none is shared.  Derived on first read, by the
        first backward pass through the level: a forward off the tape
        never reads it."""
        return rank_rounds(self.edge_parent_slots, self.edge_child_ids,
                           self.edge_child_ranks)


@dataclass
class GraphBatch:
    """A batch of plan graphs ready for the model."""

    num_nodes: int
    features: dict[str, np.ndarray]
    type_positions: dict[str, np.ndarray]
    levels: list[LevelSpec]
    roots: np.ndarray
    #: Batch node id of every plan operator, graph by graph in pre-order:
    #: the row order of ``card_targets``, ``plan_op_log_rows`` and
    #: ``plan_op_rows``.  ``type_positions["plan_op"]`` unless the merge
    #: shared subtrees, when operators with one subtree share one node.
    plan_op_ids: np.ndarray
    targets: np.ndarray | None = None
    #: Per-operator log1p cardinality labels, aligned row-for-row with
    #: ``plan_op_ids`` (None when the graphs carry no cardinality
    #: labels).
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
    #: Per node, a hash of its subtree, its type and its feature bits
    #: in one row (:func:`_subtree_rows`), derived by the first merge
    #: that shares subtrees and then kept.
    _subtrees: np.ndarray | None = field(default=None, init=False,
                                         repr=False)

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


def _all_or_none(labels: list, kind: str) -> list | None:
    """``labels``, or None when no graph carries one.  A mixed list is
    always a bug: silently dropping the labelled subset would yield no
    labels with no diagnostic."""
    missing = sum(label is None for label in labels)
    if missing == len(labels):
        return None
    if missing:
        raise FeaturizationError(
            f"{missing} of {len(labels)} graphs are missing {kind} labels; "
            f"label all graphs (training) or none (inference)"
        )
    return labels


@dataclass
class LevelPlan:
    """The structural half of a merged batch — everything in
    :class:`GraphBatch` that depends only on the graphs' *shapes*
    (levels, edges, node types), not on their feature values.

    Deriving it is the expensive part of :func:`merge_encoded` (the
    ``argsort``/``searchsorted`` grouping plus the per-level Python
    loop); for a fixed list of graphs it never changes, so
    :class:`LevelPlanCache` can hand out one plan per graph list.
    Consumers must treat every array as read-only — the same plan is
    shared by every batch built from it.
    """

    num_nodes: int
    type_positions: dict[str, np.ndarray]
    levels: list[LevelSpec]
    roots: np.ndarray


class _Structure(NamedTuple):
    """The shape of a batch's graphs in batch-global node ids: what
    :func:`_level_plan` groups (per node, per edge, per graph)."""

    type_codes: np.ndarray
    levels: np.ndarray
    edges_child: np.ndarray
    edges_parent: np.ndarray
    #: Per edge, its rank within its parent (its child-sum round).
    parent_ranks: np.ndarray
    #: Per edge, its backward round (None: the order edges are listed in).
    child_ranks: np.ndarray | None
    roots: np.ndarray


def _structure(encoded: list[EncodedGraph]) -> _Structure:
    """The graphs' arrays concatenated, node ids offset per graph."""
    if not encoded:
        raise FeaturizationError("cannot batch zero graphs")
    sizes = _graph_sizes(encoded)
    graph_offsets = np.cumsum(sizes) - sizes
    edge_offsets = np.repeat(graph_offsets,
                             [len(g.edges_child) for g in encoded])
    edges_child = np.concatenate([g.edges_child for g in encoded])
    edges_child += edge_offsets
    edges_parent = np.concatenate([g.edges_parent for g in encoded])
    edges_parent += edge_offsets
    return _Structure(
        type_codes=np.concatenate([g.type_codes for g in encoded]),
        levels=np.concatenate([g.levels for g in encoded]),
        edges_child=edges_child,
        edges_parent=edges_parent,
        parent_ranks=np.concatenate([g.edge_parent_ranks for g in encoded]),
        child_ranks=np.concatenate([g.edge_child_ranks for g in encoded]),
        roots=np.fromiter((g.root for g in encoded), dtype=np.int64,
                          count=len(encoded)) + graph_offsets,
    )


def _graph_sizes(encoded: list[EncodedGraph]) -> np.ndarray:
    return np.fromiter((g.num_nodes for g in encoded), dtype=np.int64,
                       count=len(encoded))


def _type_positions(type_codes: np.ndarray) -> dict[str, np.ndarray]:
    """Per node type, the ids of its nodes in ascending order."""
    # A stable sort keeps ascending-id order within a type (a radix
    # sort, on one byte per code).
    by_type = np.argsort(type_codes.astype(np.uint8), kind="stable")
    type_starts = np.searchsorted(type_codes[by_type],
                                  np.arange(len(NODE_TYPES) + 1)).tolist()
    return {
        node_type: by_type[type_starts[code]:type_starts[code + 1]]
        for code, node_type in enumerate(NODE_TYPES)
    }


def _level_plan(structure: _Structure) -> LevelPlan:
    """The :class:`LevelPlan` of the nodes and edges of ``structure``.

    Pure numpy over the concatenated graphs: three ``argsort``s group
    the nodes by type, the nodes by level and the edges by (parent
    level, rank within the parent); every level's arrays and child-sum
    rounds are then slices of those orders.  Only a level that mixes
    node types sorts again (its parents by type); the backward rounds
    wait for a backward pass (:attr:`LevelSpec.grad_sums`).
    """
    (type_codes, level_arr, edges_child, edges_parent, parent_ranks,
     child_ranks, roots) = structure
    num_nodes = len(type_codes)
    type_positions = _type_positions(type_codes)

    num_types = len(NODE_TYPES)
    num_levels = int(level_arr.max()) + 1 if num_nodes else 1
    node_order = np.argsort(
        level_arr.astype(np.min_scalar_type(num_levels)), kind="stable")
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
    ordered_child_ranks = (None if child_ranks is None
                           else child_ranks[edge_order])

    level_specs: list[LevelSpec] = []
    for level in range(1, num_levels):
        first, last = node_starts[level], node_starts[level + 1]
        if first == last:
            continue
        bounds = round_starts[level * num_ranks:(level + 1) * num_ranks + 1]
        child_sums = RowSums(
            ordered_slots[bounds[0]:bounds[1]],
            tuple(ordered_children[start:stop]
                  for start, stop in zip(bounds[:-1], bounds[1:])
                  if stop > start))

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
            parent_ids=node_order[first:last],
            edge_child_ids=ordered_children[bounds[0]:bounds[-1]],
            edge_parent_slots=ordered_slots[bounds[0]:bounds[-1]],
            type_slots=type_slots,
            child_sums=child_sums,
            edge_child_ranks=(None if ordered_child_ranks is None else
                              ordered_child_ranks[bounds[0]:bounds[-1]]),
        ))

    return LevelPlan(
        num_nodes=num_nodes,
        type_positions=type_positions,
        levels=level_specs,
        roots=roots,
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
        """The level plan for ``encoded`` (order-sensitive, one node per
        node of every graph), derived at most once."""
        key = tuple(id(graph) for graph in encoded)
        entry = self.get(key)
        if entry is not None:
            return entry[1]
        plan = _level_plan(_structure(encoded))
        self.put(key, (tuple(encoded), plan))
        return plan


#: Batches of at least this many graphs compute each distinct subtree
#: once (:func:`_share_subtrees`).  Below it the checks and the
#: compaction cost more than the smaller forward saves: on ``bench``'s
#: serving model (2-core 2.1 GHz Xeon), merge plus forward of distinct
#: plans is 4 % slower shared than unshared at 8 graphs, even at 20 and
#: 3 % faster at 24.
_SHARE_MIN_GRAPHS = 24

#: Odd multiplier of :func:`_hash_subtrees` (the 64-bit golden ratio).
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def _mix(keys: np.ndarray) -> np.ndarray:
    """A bijection of ``uint64`` that spreads every input bit."""
    keys = keys ^ (keys >> np.uint64(32))
    keys *= np.uint64(0xD6E8FEB86659FD93)
    keys ^= keys >> np.uint64(32)
    return keys


def _node_rows(structure: _Structure,
               features: dict[str, np.ndarray]) -> np.ndarray:
    """Per node, one ``int64`` row: a zero for its subtree key (filled
    in by :func:`_subtree_rows`), its type code and the bits of its
    feature row, zero-padded to the widest type."""
    width = 2 + max(rows.shape[1] for rows in features.values())
    node_rows = np.zeros((len(structure.type_codes), width), dtype=np.int64)
    node_rows[:, 1] = structure.type_codes
    for node_type, ids in _type_positions(structure.type_codes).items():
        rows = features[node_type]
        node_rows[ids, 2:2 + rows.shape[1]] = rows.view(np.int64)
    return node_rows


def _hash_subtrees(structure: _Structure, node_rows: np.ndarray
                   ) -> np.ndarray:
    """Per node, a 64-bit hash of its subtree: its row of
    :func:`_node_rows` and, in edge order, its children's hashes.
    Equal subtrees hash equal; unequal ones almost never do, and a key
    only proposes (:func:`_share_subtrees` checks)."""
    weights = _mix(np.arange(1, node_rows.shape[1] + 1, dtype=np.uint64)
                   * _GOLDEN) | np.uint64(1)
    own = (node_rows.view(np.uint64) * weights).sum(axis=1)
    keys = _mix(own)
    # Level by level, children before parents: the edges sorted by
    # (parent level, parent), so a level's edges are one slice and each
    # parent's one run in it.
    parent_levels = structure.levels[structure.edges_parent]
    edge_order = np.argsort(parent_levels * len(keys)
                            + structure.edges_parent)
    parents = structure.edges_parent[edge_order]
    children = structure.edges_child[edge_order]
    salts = (structure.parent_ranks[edge_order].astype(np.uint64)
             + np.uint64(1)) * _GOLDEN
    bounds = np.searchsorted(parent_levels[edge_order],
                             np.arange(int(structure.levels.max()) + 2))
    new_parent = np.ones(len(parents), dtype=bool)
    new_parent[1:] = parents[1:] != parents[:-1]
    for first, last in zip(bounds[1:-1].tolist(), bounds[2:].tolist()):
        runs = np.flatnonzero(new_parent[first:last])
        summed = np.add.reduceat(
            _mix(keys[children[first:last]] + salts[first:last]), runs)
        mine = parents[first:last][runs]
        keys[mine] = _mix(own[mine] + summed)
    return keys


def _subtree_rows(encoded: list[EncodedGraph]) -> np.ndarray:
    """The batch's :func:`_node_rows`, each with its subtree key
    (:func:`_hash_subtrees`) in column 0.  They depend on a graph alone,
    so each graph's are derived once, by the first merge that needs
    them, and kept on the graph."""
    missing = list({id(g): g for g in encoded
                    if g._subtrees is None}.values())
    if missing:
        structure = _structure(missing)
        node_rows = _node_rows(structure, _merge_features(missing))
        node_rows[:, 0] = _hash_subtrees(structure, node_rows).view(np.int64)
        stops = np.cumsum(_graph_sizes(missing)).tolist()
        for graph, start, stop in zip(missing, [0] + stops, stops):
            graph._subtrees = node_rows[start:stop].copy()
    return np.concatenate([g._subtrees for g in encoded])


def _share_subtrees(encoded: list[EncodedGraph], structure: _Structure
                    ) -> tuple[_Structure, np.ndarray, np.ndarray] | None:
    """The batch with one node per distinct subtree, or None to keep
    one node per node.

    The first node of every subtree key represents the others.  The
    mapping is used only if every node has its representative's
    :func:`_subtree_rows` row (key, type code and feature bits) and, rank by
    rank, children with the same representatives: by induction from the
    leaves, each represented subtree then equals its representative's,
    so every row of the forward is what the unshared batch computes for
    it.  Returns the distinct nodes' structure and rows (in ascending
    node order) and, per plan operator, the id of its representative
    among them.
    """
    num_nodes = len(structure.type_codes)
    node_rows = _subtree_rows(encoded)
    keys = node_rows[:, 0]
    order = np.argsort(keys)
    ordered = keys[order]
    new_key = np.ones(num_nodes, dtype=bool)
    new_key[1:] = ordered[1:] != ordered[:-1]
    if new_key.all():
        return None
    # The first node of each run of equal keys, by id.
    rep = np.empty(num_nodes, dtype=np.int64)
    rep[order] = np.minimum.reduceat(order, np.flatnonzero(new_key))[
        np.cumsum(new_key) - 1]

    if not np.array_equal(node_rows[rep], node_rows):
        return None
    # Row n, column r: the representative of node n's r-th child (-1:
    # none), so equal rows mean equal fan-in and equal children.
    children = np.full((num_nodes, int(structure.parent_ranks.max()) + 1
                        if len(structure.parent_ranks) else 1), -1)
    children[structure.edges_parent, structure.parent_ranks] = \
        rep[structure.edges_child]
    if not np.array_equal(children[rep], children):
        return None

    is_rep = rep == np.arange(num_nodes)
    compact = np.cumsum(is_rep) - 1
    node_ids = compact[rep]
    distinct = np.flatnonzero(is_rep)
    kept = is_rep[structure.edges_parent]
    shared = _Structure(
        type_codes=structure.type_codes[distinct],
        levels=structure.levels[distinct],
        edges_child=node_ids[structure.edges_child[kept]],
        edges_parent=compact[structure.edges_parent[kept]],
        parent_ranks=structure.parent_ranks[kept],
        child_ranks=None,
        roots=node_ids[structure.roots],
    )
    plan_ops = np.flatnonzero(
        structure.type_codes == NODE_TYPES.index("plan_op"))
    return shared, node_rows[distinct], node_ids[plan_ops]


def _merge_features(encoded: list[EncodedGraph]) -> dict[str, np.ndarray]:
    return {node_type: np.concatenate([g.features[node_type]
                                       for g in encoded])
            for node_type in NODE_TYPES}


def merge_encoded(encoded: list[EncodedGraph],
                  require_targets: bool = False,
                  level_cache: LevelPlanCache | None = None) -> GraphBatch:
    """Merge pre-encoded graphs into a :class:`GraphBatch` (cheap).

    Labelled (training, validation, fine-tuning) or not (inference),
    every batch takes one path: the graphs' structure, from
    :data:`_SHARE_MIN_GRAPHS` graphs on one node per distinct subtree
    (:func:`_share_subtrees`), then the level plan and the features.
    Plans over one database repeat their table, column, index and
    predicate leaves and often whole scans, and each is then encoded
    and combined once; ``roots`` and ``plan_op_ids`` index the shared
    nodes.  Every row of the forward depends on its own inputs alone,
    so its predictions and losses are bit-identical shared or not; a
    node read by several parents, roots or operators sums their
    gradients on the tape.

    With ``level_cache`` the merge is unshared and its level plan comes
    from the cache when the exact same graph list was merged before.
    """
    if not encoded:
        raise FeaturizationError("cannot batch zero graphs")
    targets = _all_or_none([g.target_log_runtime for g in encoded],
                           "runtime")
    if targets is None and require_targets:
        raise FeaturizationError("graph is missing its runtime label")
    card_targets = _all_or_none(
        [g.target_log_cardinalities for g in encoded], "cardinality")
    shared = None
    if level_cache is not None:
        plan = level_cache.level_plan(encoded)
    else:
        structure = _structure(encoded)
        if len(encoded) >= _SHARE_MIN_GRAPHS:
            shared = _share_subtrees(encoded, structure)
        if shared is not None:
            structure, node_rows, plan_op_ids = shared
        plan = _level_plan(structure)
    if shared is None:
        features = _merge_features(encoded)
        plan_op_ids = plan.type_positions["plan_op"]
    else:
        # The distinct nodes' feature rows, back from their bits.
        widths = {node_type: rows.shape[1]
                  for node_type, rows in encoded[0].features.items()}
        features = {
            node_type: node_rows[ids, 2:2 + widths[node_type]].view(
                np.float64)
            for node_type, ids in plan.type_positions.items()}

    return GraphBatch(
        num_nodes=plan.num_nodes,
        features=features,
        type_positions=plan.type_positions,
        levels=plan.levels,
        roots=plan.roots,
        plan_op_ids=plan_op_ids,
        targets=None if targets is None else np.asarray(targets),
        card_targets=(None if card_targets is None
                      else np.concatenate(card_targets)),
        plan_op_counts=[len(g.features["plan_op"]) for g in encoded],
        plan_op_log_rows=np.concatenate([g.plan_op_log_rows
                                         for g in encoded]),
        plan_op_rows=np.concatenate([g.plan_op_rows for g in encoded]),
    )
