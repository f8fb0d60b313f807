"""Encode-once level plans: cached merges are bit-identical to fresh ones.

``merge_encoded`` splits into a structural half (:class:`LevelPlan`,
pure function of the graph list) and a per-call feature concatenation.
The cache may only ever skip the structural derivation — every field of
the resulting :class:`GraphBatch` must match the uncached merge
bit-for-bit, for any batch composition.
"""

import numpy as np
import pytest

from repro.engine import execute_plan
from repro.errors import FeaturizationError
from repro.featurize import (
    CardinalitySource,
    LevelPlanCache,
    ZeroShotFeaturizer,
    encode_graphs,
    merge_encoded,
)
from repro.models import TrainerConfig, ZeroShotConfig, ZeroShotCostModel
from repro.optimizer import plan_query
from repro.sql import parse_query
from repro.workload import WorkloadSpec, generate_workload

pytestmark = pytest.mark.perf


@pytest.fixture(scope="module")
def encoded_graphs(tiny_imdb):
    """A dozen encoded plan graphs with runtime + cardinality labels."""
    queries = generate_workload(tiny_imdb, WorkloadSpec(num_queries=12,
                                                        seed=17))
    featurizer = ZeroShotFeaturizer(CardinalitySource.ESTIMATED)
    graphs = []
    for query in queries:
        plan = plan_query(tiny_imdb, query)
        execute_plan(tiny_imdb, plan)
        graphs.append(featurizer.featurize(plan, tiny_imdb, target_runtime_seconds=0.01))
    return encode_graphs(graphs)


def assert_batches_identical(left, right):
    assert left.num_nodes == right.num_nodes
    assert left.plan_op_counts == right.plan_op_counts
    np.testing.assert_array_equal(left.roots, right.roots)
    for key in left.features:
        np.testing.assert_array_equal(left.features[key],
                                      right.features[key])
        np.testing.assert_array_equal(left.type_positions[key],
                                      right.type_positions[key])
    assert len(left.levels) == len(right.levels)
    for l_spec, r_spec in zip(left.levels, right.levels):
        np.testing.assert_array_equal(l_spec.parent_ids, r_spec.parent_ids)
        np.testing.assert_array_equal(l_spec.edge_child_ids,
                                      r_spec.edge_child_ids)
        np.testing.assert_array_equal(l_spec.edge_parent_slots,
                                      r_spec.edge_parent_slots)
        assert set(l_spec.type_slots) == set(r_spec.type_slots)
        for node_type in l_spec.type_slots:
            np.testing.assert_array_equal(l_spec.type_slots[node_type],
                                          r_spec.type_slots[node_type])
    for name in ("targets", "card_targets", "plan_op_log_rows",
                 "plan_op_rows"):
        l_val, r_val = getattr(left, name), getattr(right, name)
        if l_val is None or r_val is None:
            assert l_val is None and r_val is None
        else:
            np.testing.assert_array_equal(l_val, r_val)


class TestCachedMergeEquivalence:
    def test_cached_merge_bit_identical(self, encoded_graphs):
        cache = LevelPlanCache()
        for batch_graphs in (encoded_graphs, encoded_graphs[:5],
                             encoded_graphs[5:], [encoded_graphs[0]]):
            fresh = merge_encoded(list(batch_graphs))
            warm = merge_encoded(list(batch_graphs), level_cache=cache)
            again = merge_encoded(list(batch_graphs), level_cache=cache)
            assert_batches_identical(fresh, warm)
            assert_batches_identical(fresh, again)
        assert cache.hits == 4
        assert cache.misses == 4

    def test_cache_is_order_sensitive(self, encoded_graphs):
        """A permuted graph list is a different batch: no false hit."""
        cache = LevelPlanCache()
        forward = encoded_graphs[:4]
        backward = list(reversed(forward))
        merge_encoded(forward, level_cache=cache)
        merged = merge_encoded(backward, level_cache=cache)
        assert cache.hits == 0 and cache.misses == 2
        assert_batches_identical(merged, merge_encoded(backward))

    def test_cached_plan_shared_not_rederived(self, encoded_graphs):
        cache = LevelPlanCache()
        batch = encoded_graphs[:6]
        plan_a = cache.level_plan(batch)
        plan_b = cache.level_plan(batch)
        assert plan_a is plan_b

    def test_mutable_batch_lists_are_fresh_per_merge(self, encoded_graphs):
        """GraphBatch declares plan_op_counts as a list a trainer may
        mutate; a cached plan must hand each batch its own copy."""
        cache = LevelPlanCache()
        batch = merge_encoded(encoded_graphs[:3], level_cache=cache)
        batch.plan_op_counts.append(-1)
        clean = merge_encoded(encoded_graphs[:3], level_cache=cache)
        assert cache.hits == 1
        assert -1 not in clean.plan_op_counts


class TestCacheMechanics:
    def test_lru_eviction_bounded(self, encoded_graphs):
        cache = LevelPlanCache(max_entries=2)
        cache.level_plan(encoded_graphs[:1])
        cache.level_plan(encoded_graphs[:2])
        cache.level_plan(encoded_graphs[:3])
        assert len(cache) == 2
        # Oldest entry evicted: re-deriving it is a miss again.
        misses = cache.misses
        cache.level_plan(encoded_graphs[:1])
        assert cache.misses == misses + 1

    def test_entries_pin_graph_objects(self, encoded_graphs):
        """A live entry must hold the graphs it was keyed by: if the
        cache kept only ids, garbage collection could recycle them onto
        different graphs and alias an unrelated batch."""
        cache = LevelPlanCache()
        cache.level_plan(encoded_graphs[:2])
        ((pinned, _),) = cache._entries.values()
        assert pinned == tuple(encoded_graphs[:2])

    def test_non_positive_capacity_rejected(self):
        with pytest.raises(FeaturizationError, match="positive"):
            LevelPlanCache(max_entries=0)

    def test_empty_batch_still_rejected(self):
        cache = LevelPlanCache()
        with pytest.raises(FeaturizationError, match="zero graphs"):
            merge_encoded([], level_cache=cache)
        with pytest.raises(FeaturizationError, match="zero graphs"):
            cache.level_plan([])


class TestModelIntegration:
    def test_model_predictions_unchanged_by_cache(self, tiny_imdb,
                                                  encoded_graphs):
        """Neither ``fit`` nor prediction merges through the model's
        level cache: a fit leaves both counters at zero, and prediction
        predicts the same after ``clear()``."""
        queries = generate_workload(tiny_imdb, WorkloadSpec(num_queries=8,
                                                            seed=23))
        featurizer = ZeroShotFeaturizer(CardinalitySource.ESTIMATED)
        plans = []
        for query in queries:
            plan = plan_query(tiny_imdb, query)
            execute_plan(tiny_imdb, plan)
            plans.append(plan)
        model = ZeroShotCostModel(ZeroShotConfig(hidden_dim=16))
        model.fit([featurizer.featurize(plan, tiny_imdb,
                                        target_runtime_seconds=0.01)
                   for plan in plans],
                  TrainerConfig(epochs=2, batch_size=4))
        counted = (model.level_cache.hits, model.level_cache.misses)
        assert counted == (0, 0)
        assert len(model.level_cache) == 0

        encoded = model.encode([featurizer.featurize(plan, tiny_imdb)
                                for plan in plans])
        before = model.predict_log_from_encoded(encoded)
        assert (model.level_cache.hits, model.level_cache.misses) == counted
        model.level_cache.clear()
        np.testing.assert_array_equal(
            model.predict_log_from_encoded(encoded), before)
        assert (model.level_cache.hits, model.level_cache.misses) == counted
