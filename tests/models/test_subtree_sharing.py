"""Batches compute each distinct subtree once.

A merge of at least ``_SHARE_MIN_GRAPHS`` graphs, labelled or not,
holds one node per distinct subtree of the batch
(``repro.featurize.batch``): plans over one database repeat their
table, column, index and predicate leaves and often whole scans.  These
tests hold what that rests on:

* the shared batch predicts, bit for bit, what the unshared batch does:
  runtimes and per-operator cardinalities, with and without the system
  node, for the zero-shot and the E2E forward;
* a shared training batch has the unshared one's loss, bit for bit,
  and its gradients up to the order the tape sums them in: a node read
  by several parents, roots or operators gets the sum of their
  gradients;
* a subtree key only proposes a representative: keys that collide for
  unequal subtrees fall back to the unshared batch;
* a prediction builds no backward rounds, neither training nor
  prediction touches the model's level cache, and keys are derived once
  per encoding and not at all below the bound.
"""

import numpy as np
import pytest
from test_reference_forward import _randomized

from repro.featurize import CardinalitySource, ZeroShotFeaturizer
from repro.featurize import batch as batch_module
from repro.featurize.batch import (
    EncodedGraph,
    LevelPlanCache,
    encode_graphs,
    fit_scalers,
    merge_encoded,
)
from repro.featurize.e2e import E2EFeaturizer
from repro.featurize.graph import FEATURE_DIMS, NODE_TYPES
from repro.models import TrainerConfig, ZeroShotConfig, ZeroShotCostModel
from repro.models.e2e import E2EConfig, E2ECostModel, E2ENet
from repro.models.zero_shot import ZeroShotNet
from repro.nn import functional as F
from repro.nn import no_grad

SHARED_SIZES = (24, 50, 64)


def _multisets(count, seed, sizes=SHARED_SIZES, draws=3):
    """Seeded random index multisets (with repeats) of ``count`` samples."""
    rng = np.random.default_rng(seed)
    for size in sizes:
        for _ in range(draws):
            yield rng.integers(0, count, size)


def _unshared(chunk, monkeypatch):
    """``merge_encoded(chunk)`` with subtree sharing out of reach."""
    with monkeypatch.context() as patch:
        patch.setattr(batch_module, "_SHARE_MIN_GRAPHS", len(chunk) + 1)
        return merge_encoded(chunk)


def _graphs(golden_plans, system_features=False):
    database, plans = golden_plans
    featurizer = ZeroShotFeaturizer(CardinalitySource.ESTIMATED,
                                    system_features=system_features)
    return [featurizer.featurize(plan, database) for plan in plans]


def _encoded(graphs):
    """Fresh encodings: no subtree keys derived yet."""
    return encode_graphs(graphs, fit_scalers(graphs))


@pytest.mark.parametrize("system_features", [False, True],
                         ids=["plain", "system"])
def test_shared_batch_predicts_what_the_unshared_one_does(
        golden_plans, system_features, monkeypatch):
    encoded = _encoded(_graphs(golden_plans, system_features))
    net = _randomized(ZeroShotNet(ZeroShotConfig(
        hidden_dim=32, cardinality_head=True,
        system_features=system_features)), seed=5)
    for picks in _multisets(len(encoded), seed=6):
        chunk = [encoded[i] for i in picks]
        shared, unshared = merge_encoded(chunk), _unshared(chunk, monkeypatch)
        total = sum(graph.num_nodes for graph in chunk)
        assert unshared.num_nodes == total
        assert shared.num_nodes < total / 2
        assert shared.plan_op_counts == unshared.plan_op_counts
        for name in ("plan_op_log_rows", "plan_op_rows"):
            assert np.array_equal(getattr(shared, name),
                                  getattr(unshared, name))
        with no_grad():
            runtime, cards = net.forward_with_cardinalities(shared)
            ref_runtime, ref_cards = \
                net.forward_with_cardinalities(unshared)
            assert np.array_equal(net(shared), net(unshared))
        assert np.array_equal(runtime, ref_runtime)
        assert np.array_equal(cards, ref_cards)
        assert cards.shape == (sum(shared.plan_op_counts),)
        assert np.abs(cards).sum() > 0


def test_shared_e2e_batch_predicts_what_the_unshared_one_does(
        golden_plans, monkeypatch):
    database, plans = golden_plans
    featurizer = E2EFeaturizer(database).fit(plans)
    model = E2ECostModel(featurizer, E2EConfig(hidden_dim=32))
    samples = [featurizer.featurize(plan) for plan in plans]
    net = _randomized(E2ENet(featurizer.node_dim, E2EConfig(hidden_dim=32)),
                      seed=7)
    for picks in _multisets(len(samples), seed=8):
        chunk = model._encode([samples[i] for i in picks])
        shared, unshared = model.collate(chunk), _unshared(chunk, monkeypatch)
        assert shared.num_nodes < unshared.num_nodes
        with no_grad():
            assert np.array_equal(net(shared), net(unshared))


def test_a_trained_model_predicts_alike_shared_or_not(golden_plans):
    """Through the model's own prediction path, against each plan
    predicted alone (batch-size invariance across the bound)."""
    database, plans = golden_plans
    featurizer = ZeroShotFeaturizer(CardinalitySource.ESTIMATED)
    model = ZeroShotCostModel(ZeroShotConfig(hidden_dim=16,
                                             cardinality_head=True))
    model.fit([featurizer.featurize(plan, database, 0.01 * (i + 1),
                                    [1.0] * plan.num_nodes)
               for i, plan in enumerate(plans)],
              TrainerConfig(epochs=2, batch_size=4, seed=0))
    encoded = model.encode(_graphs(golden_plans))
    alone = [model.predict_log_from_encoded([graph])[0] for graph in encoded]
    cards_alone = [model.predict_cardinalities_from_encoded([graph])[0]
                   for graph in encoded]
    for picks in _multisets(len(encoded), seed=9, draws=2):
        chunk = [encoded[i] for i in picks]
        assert np.array_equal(model.predict_log_from_encoded(chunk),
                              [alone[i] for i in picks])
        for cards, i in zip(model.predict_cardinalities_from_encoded(chunk),
                            picks):
            assert np.array_equal(cards, cards_alone[i])


def _labelled(golden_plans, case):
    """An untrained model of ``case`` and the golden plans as its
    labelled samples: runtimes and, per operator, cardinalities."""
    database, plans = golden_plans
    if case == "e2e":
        featurizer = E2EFeaturizer(database).fit(plans)
        return (E2ECostModel(featurizer, E2EConfig(hidden_dim=32)),
                [featurizer.featurize(plan, 0.01 * (i + 1))
                 for i, plan in enumerate(plans)])
    system_features = case == "system"
    featurizer = ZeroShotFeaturizer(CardinalitySource.ESTIMATED,
                                    system_features=system_features)
    model = ZeroShotCostModel(ZeroShotConfig(
        hidden_dim=32, cardinality_head=case == "cardinality",
        system_features=system_features))
    return model, [featurizer.featurize(
        plan, database, 0.01 * (i + 1),
        [3.0 * j + 1 for j in range(plan.num_nodes)])
        for i, plan in enumerate(plans)]


@pytest.mark.parametrize("case", ["plain", "cardinality", "system", "e2e"])
def test_shared_training_batch_matches_the_unshared_one(
        golden_plans, case, monkeypatch):
    """One taped forward + loss + backward through the closures ``fit``
    trains with, on a labelled batch with repeated plans: their roots
    and ``plan_op_ids`` repeat, and their loss terms add up on one
    node."""
    model, samples = _labelled(golden_plans, case)
    model._calibrate(samples)
    _randomized(model.net, seed=14).train()
    forward, targets = model.training_closures()
    encoded = model._encode(samples)
    picks = next(_multisets(len(encoded), seed=15))
    assert len(set(picks.tolist())) < len(picks)
    chunk = [encoded[i] for i in picks]

    runs = []
    for batch in (model.collate(chunk), _unshared(chunk, monkeypatch)):
        model.net.zero_grad()
        predictions = forward(batch)
        loss = F.q_loss(predictions, targets(batch))
        loss.backward()
        runs.append((batch.num_nodes, predictions.data, loss.item(),
                     [param.grad for param in model.net.parameters()]))
    (shared_nodes, shared, shared_loss, shared_grads), \
        (nodes, unshared, unshared_loss, grads) = runs
    assert shared_nodes < nodes
    assert np.array_equal(shared, unshared)
    assert shared_loss == unshared_loss
    for name, shared_grad, grad in zip(model.net.state_dict(),
                                       shared_grads, grads):
        if grad is None:
            assert shared_grad is None, name
            continue
        assert np.abs(shared_grad - grad).max() <= \
            1e-12 * np.abs(grad).max(), name
    assert any(grad is not None and np.abs(grad).max() > 0
               for grad in grads)


# ----------------------------------------------------------------------
# A key only proposes
# ----------------------------------------------------------------------
def _leaf(node_type, row):
    """A one-node graph: a leaf of ``node_type`` with feature ``row``."""
    return EncodedGraph(
        num_nodes=1,
        features={t: np.array([row]) if t == node_type
                  else np.zeros((0, FEATURE_DIMS[t])) for t in NODE_TYPES},
        type_positions={t: np.arange(int(t == node_type))
                        for t in NODE_TYPES},
        type_codes=np.array([NODE_TYPES.index(node_type)]),
        levels=np.zeros(1, dtype=np.int64),
        edges_child=np.zeros(0, dtype=np.int64),
        edges_parent=np.zeros(0, dtype=np.int64),
        root=0,
        target_log_runtime=None,
    )


def _tables_and_indexes(golden_plans):
    """Table and index leaves with one feature row: only their types
    tell them apart."""
    assert FEATURE_DIMS["table"] == FEATURE_DIMS["index"]
    row = np.linspace(-1.0, 1.0, FEATURE_DIMS["table"])
    return [_leaf("table", row), _leaf("index", row)] * 16


def _golden_batch(golden_plans):
    encoded = _encoded(_graphs(golden_plans, system_features=True))
    return [encoded[i] for i in next(_multisets(len(encoded), seed=10))]


def _all_equal(real, structure, node_rows):
    return np.zeros(len(structure.type_codes), dtype=np.uint64)


def _one_per_leaf_type(real, structure, node_rows):
    """True keys, but the leaves of a type all collide."""
    keys = real(structure, node_rows)
    leaves = structure.levels == 0
    keys[leaves] = structure.type_codes[leaves].astype(np.uint64)
    return keys


def _blind_to_children(real, structure, node_rows):
    """Each node's own row hash: a parent collides with every parent of
    its type and features, whatever its children."""
    no_edges = np.zeros(0, dtype=np.int64)
    return real(structure._replace(edges_child=no_edges,
                                   edges_parent=no_edges,
                                   parent_ranks=no_edges),
                node_rows)


@pytest.mark.parametrize("batch, collide", [
    (_tables_and_indexes, _all_equal),
    (_golden_batch, _one_per_leaf_type),
    (_golden_batch, _blind_to_children),
], ids=["types", "features", "children"])
def test_a_key_collision_falls_back_to_the_unshared_batch(
        golden_plans, monkeypatch, batch, collide):
    """Keys that collide for nodes of another type, with other feature
    bits or with other children: the merge checks every proposal, and
    one mismatch keeps one node per node."""
    chunk = batch(golden_plans)
    expected = _unshared(chunk, monkeypatch)
    net = _randomized(ZeroShotNet(ZeroShotConfig(
        hidden_dim=16, cardinality_head=True, system_features=True)),
        seed=11)

    real = batch_module._hash_subtrees
    monkeypatch.setattr(batch_module, "_hash_subtrees",
                        lambda *args: collide(real, *args))
    fallback = merge_encoded(chunk)
    assert fallback.num_nodes == expected.num_nodes
    assert np.array_equal(fallback.roots, expected.roots)
    assert np.array_equal(fallback.plan_op_ids, expected.plan_op_ids)
    for node_type, rows in expected.features.items():
        assert np.array_equal(fallback.features[node_type], rows)
    with no_grad():
        assert np.array_equal(
            np.concatenate(net.forward_with_cardinalities(fallback)),
            np.concatenate(net.forward_with_cardinalities(expected)))


# ----------------------------------------------------------------------
# What a merge does not do
# ----------------------------------------------------------------------
class _SpiedCache(LevelPlanCache):
    """A level cache that records every attribute read on it."""

    def __init__(self):
        super().__init__()
        object.__setattr__(self, "reads", [])

    def __getattribute__(self, name):
        if name != "reads":
            object.__getattribute__(self, "reads").append(name)
        return object.__getattribute__(self, name)


def test_prediction_builds_no_backward_rounds_and_skips_the_level_cache(
        golden_plans, monkeypatch):
    database, plans = golden_plans
    featurizer = ZeroShotFeaturizer(CardinalitySource.ESTIMATED)
    labelled = [featurizer.featurize(plan, database, 0.01 * (i + 1),
                                     [1.0] * plan.num_nodes)
                for i, plan in enumerate(plans)]
    model = ZeroShotCostModel(ZeroShotConfig(hidden_dim=16,
                                             cardinality_head=True))
    rounds = []
    real = batch_module.rank_rounds
    monkeypatch.setattr(batch_module, "rank_rounds",
                        lambda *args: rounds.append(args) or real(*args))
    model.level_cache = _SpiedCache()

    # The spies see what they guard: training's backward passes derive
    # the rounds, and training never reads the cache either.
    model.fit(labelled, TrainerConfig(epochs=1, batch_size=4, seed=0))
    assert rounds
    assert model.level_cache.reads == []
    rounds.clear()

    encoded = model.encode(_graphs(golden_plans))
    for picks in _multisets(len(encoded), seed=12, sizes=(1, 8, 64),
                            draws=1):
        chunk = [encoded[i] for i in picks]
        assert len(model.predict_log_from_encoded(chunk)) == len(chunk)
        assert len(model.predict_cardinalities_from_encoded(chunk)) == \
            len(chunk)
    assert rounds == []
    assert model.level_cache.reads == []


def test_keys_are_derived_once_per_encoding_and_not_below_the_bound(
        golden_plans, monkeypatch):
    encoded = _encoded(_graphs(golden_plans))
    calls = []
    real = batch_module._hash_subtrees
    monkeypatch.setattr(batch_module, "_hash_subtrees",
                        lambda *args: calls.append(1) or real(*args))
    bound = batch_module._SHARE_MIN_GRAPHS
    merge_encoded((encoded * bound)[:bound - 1])
    assert calls == []
    assert all(graph._subtrees is None for graph in encoded)

    first = merge_encoded((encoded * bound)[:bound])
    again = merge_encoded(list(reversed(encoded)) * bound)
    assert calls == [1]
    assert first.num_nodes == again.num_nodes
