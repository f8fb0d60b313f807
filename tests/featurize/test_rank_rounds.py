"""The rank rounds a one-node-per-node merge emits, against the edge
lists.

A level's child sum and its backward pass run over precomputed
:class:`~repro.nn.tensor.RowSums`.  Whatever order the plan lists the
edges in, every parent must add its children — and every shared child
its parents' gradients — in **batch edge order** (graph by graph, edge
by edge), because that is the order ``np.add.at`` added them in and
float addition does not commute beyond two terms.  The oracle here is
derived from the encoded graphs alone, never from the plan under test.
"""

import numpy as np
import pytest

from repro.engine import execute_plan
from repro.featurize import CardinalitySource, ZeroShotFeaturizer, encode_graphs
from repro.featurize import batch as batch_module
from repro.featurize.batch import EncodedGraph, LevelSpec, merge_encoded
from repro.nn.tensor import Tensor, gather_sum
from repro.optimizer import plan_query
from repro.workload import WorkloadSpec, generate_workload


@pytest.fixture(scope="module", params=[False, True],
                ids=["plain", "system"])
def encoded(request, tiny_imdb):
    """Encoded plan graphs; with system features on, one machine node
    fans out to every operator, so children shared by three and more
    parents of one level are the rule."""
    featurizer = ZeroShotFeaturizer(CardinalitySource.ESTIMATED,
                                    system_features=request.param)
    graphs = []
    for query in generate_workload(tiny_imdb,
                                   WorkloadSpec(num_queries=24, seed=23)):
        plan = plan_query(tiny_imdb, query)
        execute_plan(tiny_imdb, plan)
        graphs.append(featurizer.featurize(plan, tiny_imdb))
    return encode_graphs(graphs)


def batch_edges(graphs):
    """(child, parent, parent level) of every edge, in batch edge order."""
    offsets = np.cumsum([0] + [g.num_nodes for g in graphs])[:-1]
    children = np.concatenate([g.edges_child + o
                               for g, o in zip(graphs, offsets)])
    parents = np.concatenate([g.edges_parent + o
                              for g, o in zip(graphs, offsets)])
    levels = np.concatenate([g.levels for g in graphs])
    return children, parents, levels[parents]


def unshared(graphs, monkeypatch):
    """``merge_encoded(graphs)`` with subtree sharing out of reach: one
    node per node of every graph, in batch order."""
    monkeypatch.setattr(batch_module, "_SHARE_MIN_GRAPHS", len(graphs) + 1)
    return merge_encoded(graphs)


def add_at(rows, indices, num_rows):
    out = np.zeros((num_rows, rows.shape[1]))
    np.add.at(out, indices, rows)
    return out


@pytest.mark.parametrize("subset", [slice(None), slice(3, 4),
                                    [5, 2, 2, 17, 9]],
                         ids=["all", "one_graph", "repeats"])
def test_level_rounds_add_in_batch_edge_order(encoded, subset,
                                              monkeypatch):
    graphs = (encoded[subset] if isinstance(subset, slice)
              else [encoded[i] for i in subset])
    plan = unshared(graphs, monkeypatch)
    children, parents, parent_levels = batch_edges(graphs)
    rng = np.random.default_rng(0)
    states = Tensor(rng.normal(size=(plan.num_nodes, 5)),
                    requires_grad=True)

    shared = 0
    seen_levels = sorted(set(parent_levels.tolist()))
    assert len(plan.levels) == len(seen_levels)
    for spec, level in zip(plan.levels, seen_levels):
        mine = parent_levels == level
        slot_of = {int(p): i for i, p in enumerate(spec.parent_ids)}
        slots = np.array([slot_of[int(p)] for p in parents[mine]])
        num_parents = len(spec.parent_ids)

        # The listed edges are the level's edges, each parent's in order.
        assert sorted(zip(spec.edge_child_ids.tolist(),
                          spec.edge_parent_slots.tolist())) == \
            sorted(zip(children[mine].tolist(), slots.tolist()))
        expected = add_at(states.data[children[mine]], slots, num_parents)
        assert np.array_equal(
            add_at(states.data[spec.edge_child_ids],
                   spec.edge_parent_slots, num_parents), expected)

        states.zero_grad()
        out = gather_sum(states, spec.child_sums, num_parents,
                         spec.grad_sums)
        assert np.array_equal(out.data, expected)
        upstream = rng.normal(size=out.shape)
        out.backward(upstream)
        assert np.array_equal(
            states.grad,
            add_at(upstream[slots], children[mine], plan.num_nodes))
        shared = max(shared, int(np.bincount(children[mine]).max()))

        # Rounds left out are derived from the listed edges: the same
        # child sums (the fallback of a hand-built LevelSpec).
        derived = LevelSpec(spec.parent_ids, spec.edge_child_ids,
                            spec.edge_parent_slots, spec.type_slots)
        assert np.array_equal(
            gather_sum(states, derived.child_sums, num_parents,
                       derived.grad_sums).data, expected)
    # The fixture really has children used more than twice in a level
    # (the case where the order of the backward sum shows).
    if any(len(g.features["system"]) for g in graphs) and len(graphs) > 1:
        assert shared >= 3


def test_single_type_levels_own_their_slots_in_order(encoded, monkeypatch):
    plan = unshared(encoded, monkeypatch)
    mixed = 0
    for spec in plan.levels:
        covered = np.sort(np.concatenate(list(spec.type_slots.values())))
        np.testing.assert_array_equal(covered,
                                      np.arange(len(spec.parent_ids)))
        np.testing.assert_array_equal(spec.parent_ids,
                                      np.sort(spec.parent_ids))
        if len(spec.type_slots) == 1:
            (slots,) = spec.type_slots.values()
            np.testing.assert_array_equal(slots,
                                          np.arange(len(spec.parent_ids)))
        else:
            mixed += 1
    assert mixed > 0 and mixed < len(plan.levels)


def test_edge_ranks_are_derived_by_the_encoded_graph():
    """Hand-built instances need not know about ranks."""
    graph = EncodedGraph(
        num_nodes=4, features={}, type_positions={},
        type_codes=np.zeros(4, dtype=np.int64),
        levels=np.array([0, 0, 1, 2]),
        edges_child=np.array([0, 1, 0, 2, 0]),
        edges_parent=np.array([2, 2, 2, 3, 3]),
        root=3, target_log_runtime=None,
    )
    np.testing.assert_array_equal(graph.edge_parent_ranks, [0, 1, 2, 0, 1])
    # Node 0 feeds node 2 twice (level 1) and node 3 once (level 2).
    np.testing.assert_array_equal(graph.edge_child_ranks, [0, 0, 1, 0, 0])
