"""The message-passing forwards against their test-only references.

``reference_forward.py`` keeps the parent commit's ``_hidden_states`` /
``E2ENet.forward`` (every scatter an ``np.zeros`` + ``np.add.at``, every
state update a full-width add).  The forwards in ``repro.models`` are
written on the rank-round row primitives instead and must produce the
same arrays **exactly**, on random batches of the frozen plan set the
featurize goldens are taken from: the reference runs on the tape, the
forward under test off it, where it returns raw ``ndarray`` values.
"""

import numpy as np
import pytest
from reference_forward import (
    reference_e2e_forward,
    reference_forward,
    reference_forward_with_cardinalities,
)

from repro.featurize import CardinalitySource, ZeroShotFeaturizer
from repro.featurize.batch import encode_graphs, fit_scalers, merge_encoded
from repro.featurize.e2e import E2EFeaturizer
from repro.models.e2e import E2EConfig, E2ECostModel, E2ENet
from repro.models.zero_shot import ZeroShotConfig, ZeroShotNet
from repro.nn import no_grad

BATCH_SIZES = (1, 16, 64)


def _random_batches(samples, seed):
    """b1 / b16 / b64 draws (with repeats) from ``samples``."""
    rng = np.random.default_rng(seed)
    for size in BATCH_SIZES:
        for _ in range(4):
            yield [samples[i] for i in rng.integers(0, len(samples), size)]


def _randomized(net, seed):
    """Biases start at zero; give every parameter a value of its own so
    no term of the forward is silently absent."""
    rng = np.random.default_rng(seed)
    for parameter in net.parameters():
        parameter.data += rng.normal(scale=0.1, size=parameter.data.shape)
    net.eval()
    return net


@pytest.mark.parametrize("system_features", [False, True],
                         ids=["plain", "system"])
def test_zero_shot_forwards_equal_the_reference(golden_plans,
                                                system_features):
    database, plans = golden_plans
    featurizer = ZeroShotFeaturizer(CardinalitySource.ESTIMATED,
                                    system_features=system_features)
    graphs = [featurizer.featurize(plan, database) for plan in plans]
    encoded = encode_graphs(graphs, fit_scalers(graphs))
    net = _randomized(ZeroShotNet(ZeroShotConfig(
        hidden_dim=32, cardinality_head=True,
        system_features=system_features)), seed=1)

    mixed_levels = 0
    for chunk in _random_batches(encoded, seed=2):
        batch = merge_encoded(chunk)
        mixed_levels += sum(len(level.type_slots) > 1
                            for level in batch.levels)
        expected = reference_forward(net, batch).data
        ref_runtime, ref_cards = \
            reference_forward_with_cardinalities(net, batch)
        with no_grad():
            out = net(batch)
            runtime, cards = net.forward_with_cardinalities(batch)
        assert all(type(value) is np.ndarray
                   for value in (out, runtime, cards))
        assert np.array_equal(out, expected)
        assert np.array_equal(runtime, ref_runtime.data)
        assert np.array_equal(runtime, expected)
        assert np.array_equal(cards, ref_cards.data)
        assert np.abs(expected).sum() > 0
    # Both branches of the per-type combine were exercised.
    assert mixed_levels > 0


def test_e2e_forward_equals_the_reference(golden_plans):
    database, plans = golden_plans
    featurizer = E2EFeaturizer(database).fit(plans)
    model = E2ECostModel(featurizer, E2EConfig(hidden_dim=32))
    samples = model._encode([featurizer.featurize(plan) for plan in plans])
    net = _randomized(E2ENet(featurizer.node_dim, E2EConfig(hidden_dim=32)),
                      seed=3)
    for chunk in _random_batches(samples, seed=4):
        batch = model.collate(chunk)
        assert batch.levels, "plans without a join or filter level"
        expected = reference_e2e_forward(net, batch).data
        with no_grad():
            out = net(batch)
        assert type(out) is np.ndarray
        assert np.array_equal(out, expected)
        assert np.abs(expected).sum() > 0
