"""The one-pass encoding against the derivation it replaced.

The featurizer appends each node as a plain row and records each type's
node ids as it goes; :func:`~repro.featurize.batch.encode_graph` then
builds every type's matrix and positions with one array call,
:func:`~repro.featurize.graph.node_levels` relaxes the edge list, and
:class:`~repro.featurize.batch.EncodedGraph` ranks its edges in one
pass.  The reference below is how all of that was derived before, kept
in this file: per-node rows stacked type by type, ``flatnonzero``
positions over the type codes, the fixpoint levelling and
``argsort``-based occurrence ranks.  Every array must be equal, bit
for bit, over generated workloads on three synthetic databases and the
IMDB benchmarks, crossed with both cardinality sources, system features
on and off, and single plans as well as shared-subplan forests.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import SyntheticDatabaseSpec, generate_database
from repro.engine import execute_plan
from repro.errors import FeaturizationError
from repro.featurize.batch import encode_graph, fit_scalers
from repro.featurize.graph import (
    FEATURE_DIMS,
    NODE_TYPES,
    TYPE_CODE_OF,
    CardinalitySource,
    ZeroShotFeaturizer,
    node_levels,
)
from repro.featurize.scalers import StandardScaler
from repro.optimizer import plan_query
from repro.optimizer.planner import PlannerOptions
from repro.plans.operators import HashAggregate, NestedLoopJoin
from repro.workload import (
    WorkloadSpec,
    generate_workload,
    make_benchmark_workload,
)


# ----------------------------------------------------------------------
# The reference derivation
# ----------------------------------------------------------------------
def reference_levels(num_nodes, edges):
    """Fixpoint levelling: raise each parent to 1 + max(children) until
    nothing changes."""
    level = [0] * num_nodes
    children = {}
    for child, parent in edges:
        children.setdefault(parent, []).append(child)
    changed = True
    iterations = 0
    while changed:
        changed = False
        iterations += 1
        if iterations > num_nodes + 2:
            raise FeaturizationError("cycle detected in plan graph")
        for parent, kids in children.items():
            wanted = 1 + max(level[k] for k in kids)
            if level[parent] < wanted:
                level[parent] = wanted
                changed = True
    return level


def occurrence_ranks(keys):
    """For every element, how many earlier elements carry the same key
    (a stable ``argsort`` and a running maximum of run starts)."""
    keys = np.asarray(keys, dtype=np.int64)
    count = len(keys)
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    positions = np.arange(count)
    new_run = np.ones(count, dtype=bool)
    new_run[1:] = ordered[1:] != ordered[:-1]
    run_starts = np.where(new_run, positions, 0)
    ranks = np.empty(count, dtype=np.int64)
    ranks[order] = positions - np.maximum.accumulate(run_starts)
    return ranks


def reference_encoding(graph, scalers):
    """Every array ``encode_graph`` derives, derived node by node."""
    type_codes = np.asarray([TYPE_CODE_OF[t] for t in graph.node_type_of],
                            dtype=np.int64)
    node_rows = [np.asarray(graph.features[t][row], dtype=np.float64)
                 for t, row in zip(graph.node_type_of, graph.type_row_of)]
    features, positions = {}, {}
    for node_type in NODE_TYPES:
        rows = [node_rows[i] for i, t in enumerate(graph.node_type_of)
                if t == node_type]
        matrix = (np.stack(rows) if rows
                  else np.zeros((0, FEATURE_DIMS[node_type])))
        if scalers is not None and len(matrix):
            matrix = scalers[node_type].transform(matrix)
        features[node_type] = matrix
        positions[node_type] = np.flatnonzero(
            type_codes == TYPE_CODE_OF[node_type]).astype(np.int64)
    levels = np.asarray(reference_levels(graph.num_nodes, graph.edges),
                        dtype=np.int64)
    edges = np.asarray(graph.edges, dtype=np.int64).reshape(-1, 2)
    parent_ranks = occurrence_ranks(edges[:, 1])
    if len(edges):
        parent_levels = levels[edges[:, 1]]
        child_ranks = occurrence_ranks(
            edges[:, 0] * (int(parent_levels.max()) + 1) + parent_levels)
    else:
        child_ranks = np.zeros(0, dtype=np.int64)
    return {"features": features, "type_positions": positions,
            "type_codes": type_codes, "levels": levels,
            "edges_child": edges[:, 0], "edges_parent": edges[:, 1],
            "edge_parent_ranks": parent_ranks,
            "edge_child_ranks": child_ranks}


def one_pass_levels(num_nodes, edges):
    """A single relaxation pass over the edges, in their listed order."""
    level = [0] * num_nodes
    for child, parent in edges:
        level[parent] = max(level[parent], level[child] + 1)
    return level


def assert_identical(actual, expected, what):
    assert actual.dtype == expected.dtype, what
    assert actual.shape == expected.shape, what
    assert np.array_equal(actual, expected), what


# ----------------------------------------------------------------------
# Plan sets
# ----------------------------------------------------------------------
#: name -> how its plans are made: a synthetic database's seed and
#: ``WorkloadSpec`` fields, or an IMDB benchmark, optionally planned
#: under ``PlannerOptions``.
PLAN_SETS = {
    "synthetic-1": {"seed": 1},
    "synthetic-2": {"seed": 2},
    # Every query groups: HashAggregate nodes with group-by column edges.
    "synthetic-3-group-by": {"seed": 3, "group_by_probability": 1.0},
    "imdb-scale": {"benchmark": "scale", "seed": 5},
    "imdb-job-light": {"benchmark": "job-light", "seed": 5},
    # Nested loops only: joins on an indexed key become index lookups.
    "imdb-index-nested-loop": {
        "benchmark": "job-light", "seed": 6,
        "options": PlannerOptions(enable_hashjoin=False)},
}


@pytest.fixture(scope="module", params=sorted(PLAN_SETS))
def plan_set(request, tiny_imdb):
    """``(name, database, plans)``, every plan executed (the ACTUAL
    source reads its cardinalities)."""
    recipe = dict(PLAN_SETS[request.param])
    benchmark = recipe.pop("benchmark", None)
    options = recipe.pop("options", None)
    if benchmark is not None:
        database = tiny_imdb
        queries = make_benchmark_workload(database, benchmark, 12,
                                          seed=recipe["seed"])
    else:
        database = generate_database(SyntheticDatabaseSpec(
            name=f"s{recipe['seed']}", seed=recipe["seed"], num_tables=4,
            min_rows=300, max_rows=1_500))
        queries = generate_workload(database,
                                    WorkloadSpec(num_queries=16, **recipe))
    plans = [plan_query(database, query, options) for query in queries]
    for plan in plans:
        execute_plan(database, plan)
    return request.param, database, plans


def _graphs(plan_set, source, system_features, forest):
    _, database, plans = plan_set
    featurizer = ZeroShotFeaturizer(source, system_features=system_features)
    if not forest:
        return [featurizer.featurize(plan, database) for plan in plans]
    # Every subtree of a plan as a root of one shared graph, children
    # before parents (as the learned-cardinality estimator lists them).
    return [featurizer.featurize_shared(plan.nodes()[::-1], plan.query,
                                        database)[0]
            for plan in plans]


def test_plan_sets_reach_the_shapes_they_are_named_for(plan_set):
    name, _, plans = plan_set
    nodes = [node for plan in plans for node in plan.nodes()]
    if name.endswith("group-by"):
        assert any(isinstance(n, HashAggregate) and n.group_by
                   for n in nodes)
    if name.endswith("index-nested-loop"):
        assert any(isinstance(n, NestedLoopJoin) and n.is_index_nested_loop
                   for n in nodes)


@pytest.mark.parametrize("forest", [False, True], ids=["plans", "forest"])
@pytest.mark.parametrize("system_features", [False, True],
                         ids=["plain", "system"])
@pytest.mark.parametrize("source", list(CardinalitySource),
                         ids=[s.value for s in CardinalitySource])
def test_encoding_equals_the_reference_derivation(plan_set, source,
                                                  system_features, forest):
    graphs = _graphs(plan_set, source, system_features, forest)
    raw = [reference_encoding(graph, None) for graph in graphs]
    scalers = fit_scalers(graphs)
    for node_type in NODE_TYPES:
        stacked = np.concatenate([r["features"][node_type] for r in raw])
        if len(stacked):
            expected = StandardScaler().fit(stacked)
            assert_identical(scalers[node_type].mean, expected.mean,
                             f"{node_type} scaler mean")
            assert_identical(scalers[node_type].std, expected.std,
                             f"{node_type} scaler std")

    for index, graph in enumerate(graphs):
        for node_type in NODE_TYPES:
            assert_identical(graph.feature_matrix(node_type),
                             raw[index]["features"][node_type],
                             f"graph {index}: {node_type} raw matrix")
        for scaling in (None, scalers):
            encoded = encode_graph(graph, scaling)
            expected = reference_encoding(graph, scaling)
            where = f"graph {index}, scaled={scaling is not None}"
            for node_type in NODE_TYPES:
                assert_identical(encoded.features[node_type],
                                 expected["features"][node_type],
                                 f"{where}: {node_type} features")
                assert_identical(encoded.type_positions[node_type],
                                 expected["type_positions"][node_type],
                                 f"{where}: {node_type} positions")
            for name in ("type_codes", "levels", "edges_child",
                         "edges_parent", "edge_parent_ranks",
                         "edge_child_ranks"):
                assert_identical(getattr(encoded, name), expected[name],
                                 f"{where}: {name}")
        # The featurizer lists a node's edges after every edge into its
        # children: one relaxation pass already settles the levels.
        assert one_pass_levels(graph.num_nodes, graph.edges) == \
            node_levels(graph.num_nodes, graph.edges)


# ----------------------------------------------------------------------
# Levels of arbitrary DAGs, edges in any order
# ----------------------------------------------------------------------
@st.composite
def shuffled_dags(draw):
    """A DAG with node ids that are not a topological order and edges
    listed in a random order."""
    num_nodes = draw(st.integers(1, 9))
    ranks = draw(st.permutations(range(num_nodes)))  # topological rank
    pairs = [(a, b) for a in range(num_nodes) for b in range(num_nodes)
             if ranks[a] < ranks[b]]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True,
                           max_size=len(pairs))) if pairs else []
    return num_nodes, list(draw(st.permutations(chosen)))


def longest_path_levels(num_nodes, edges):
    """Brute force: the most edges on any path ending at each node,
    found by walking every path backwards."""
    children = {v: [c for c, p in edges if p == v] for v in range(num_nodes)}

    def deepest(node):
        return max((1 + deepest(c) for c in children[node]), default=0)

    return [deepest(v) for v in range(num_nodes)]


def reachable(num_nodes, edges):
    """Every ``(a, b)`` with a path of at least one edge from a to b."""
    parents = {v: [p for c, p in edges if c == v] for v in range(num_nodes)}
    pairs = set()
    for start in range(num_nodes):
        stack = list(parents[start])
        while stack:
            node = stack.pop()
            if (start, node) not in pairs:
                pairs.add((start, node))
                stack.extend(parents[node])
    return sorted(pairs)


@settings(max_examples=200, deadline=None)
@given(shuffled_dags())
def test_levels_are_longest_paths_in_any_edge_order(dag):
    num_nodes, edges = dag
    assert node_levels(num_nodes, edges) == \
        longest_path_levels(num_nodes, edges)
    assert node_levels(num_nodes, edges) == \
        reference_levels(num_nodes, edges)


@settings(max_examples=200, deadline=None)
@given(shuffled_dags(), st.data())
def test_a_back_edge_is_a_cycle(dag, data):
    num_nodes, edges = dag
    paths = reachable(num_nodes, edges)
    if not paths:
        return
    start, end = data.draw(st.sampled_from(paths))
    cyclic = list(edges)
    cyclic.insert(data.draw(st.integers(0, len(cyclic))), (end, start))
    with pytest.raises(FeaturizationError, match="cycle"):
        node_levels(num_nodes, cyclic)


def test_worst_edge_order_settles_within_the_pass_bound():
    """A chain listed parent-first moves one level per pass: the most
    passes any order needs, still inside the bound."""
    num_nodes = 12
    chain = [(i, i + 1) for i in range(num_nodes - 1)]
    assert node_levels(num_nodes, chain[::-1]) == list(range(num_nodes))
