"""Shared-subgraph fragment priming: bit-identical, strictly cheaper.

``LearnedCardinalityEstimator._prime_query_deduped`` collapses a
query's O(2^k) canonical fragment plans into one merged DAG that
encodes every shared scan / left-deep-prefix subplan exactly once.
The non-negotiable property: every fragment estimate equals the legacy
per-fragment path bit-for-bit (batch-size-invariant forward pass +
identical heuristic annotations on shared nodes).
"""

import pytest

from repro.db import SyntheticDatabaseSpec, generate_database
from repro.featurize import CardinalitySource, ZeroShotFeaturizer
from repro.models import TrainerConfig, ZeroShotConfig, get_estimator
from repro.optimizer import LearnedCardinalityEstimator, Planner
from repro.optimizer.cardinality import BoundCardinalities
from repro.workload import WorkloadRunner, WorkloadSpec, generate_workload

pytestmark = pytest.mark.perf


@pytest.fixture(scope="module")
def setup():
    database = generate_database(SyntheticDatabaseSpec(
        name="dedup-synth", seed=41, num_tables=5, min_rows=400,
        max_rows=2_500,
    ))
    runner = WorkloadRunner(database, seed=8)
    records = runner.run(generate_workload(
        database, WorkloadSpec(num_queries=30, max_tables=5, seed=9)))
    estimator = get_estimator(
        "zero-shot-cardinality",
        config=ZeroShotConfig(hidden_dim=16, cardinality_head=True))
    estimator.fit(records, database, TrainerConfig(
        epochs=3, batch_size=16, early_stopping_patience=5))
    return database, records, estimator


def fragment_caches(learned, queries):
    """Prime every query and return {query: fragment dict} snapshots."""
    out = {}
    for query in queries:
        learned.joined_rows(query, frozenset(query.table_names))
        out[query] = dict(learned._cache.get(query))
    return out


class TestBitIdentity:
    def test_dedup_matches_legacy_on_every_fragment(self, setup):
        database, records, estimator = setup
        legacy = LearnedCardinalityEstimator(database, estimator,
                                             dedup_fragments=False)
        dedup = LearnedCardinalityEstimator(database, estimator)
        assert dedup._predict_graphs is not None
        queries = [r.query for r in records]
        legacy_frags = fragment_caches(legacy, queries)
        dedup_frags = fragment_caches(dedup, queries)
        for key in legacy_frags:
            assert legacy_frags[key] == dedup_frags[key]
        assert dedup.learned_fragments == legacy.learned_fragments
        assert dedup.learned_fragments > 0
        # Only the dedup path reports merged-graph node counts.
        assert dedup.primed_graph_nodes > 0
        assert legacy.primed_graph_nodes == 0

    def test_planner_plans_identical_under_dedup(self, setup):
        database, records, estimator = setup
        legacy = LearnedCardinalityEstimator(database, estimator,
                                             dedup_fragments=False)
        dedup = LearnedCardinalityEstimator(database, estimator)
        for record in records[:8]:
            plan_a = Planner(
                database, cardinality_estimator=legacy).plan(record.query)
            plan_b = Planner(
                database, cardinality_estimator=dedup).plan(record.query)
            shape_a = [(n.label(), n.est_rows) for n in plan_a.nodes()]
            shape_b = [(n.label(), n.est_rows) for n in plan_b.nodes()]
            assert shape_a == shape_b
            assert plan_a.total_cost == plan_b.total_cost


class TestSharedEncoding:
    def test_shared_graph_encodes_fewer_nodes(self, setup):
        """The merged graph must be strictly smaller than the sum of
        the per-fragment graphs — that's the whole point."""
        database, records, estimator = setup
        featurizer = ZeroShotFeaturizer(CardinalitySource.ESTIMATED)
        query = max((r.query for r in records),
                    key=lambda q: len(q.tables))
        assert len(query.tables) >= 3
        dedup = LearnedCardinalityEstimator(database, estimator)
        dedup.joined_rows(query, frozenset(query.table_names))
        shared_nodes = dedup.primed_graph_nodes

        from repro.optimizer.join_order import connected_subsets
        adjacency = dedup._join_adjacency(query)
        heuristic = BoundCardinalities(database, query)
        per_fragment = 0
        for aliases in connected_subsets(query):
            plan = dedup._fragment_plan(heuristic, aliases, adjacency)
            graph = featurizer.featurize(plan, database)
            per_fragment += graph.num_nodes
        assert shared_nodes < per_fragment
        # The gate in benchmarks/ demands >=2x on a 5-way join; here we
        # just pin that sharing is real on whatever the workload gave us.
        assert shared_nodes <= per_fragment * 0.8

    def test_featurize_shared_single_root_matches_featurize(self, setup):
        """One root through featurize_shared == plain featurize."""
        database, records, estimator = setup
        featurizer = ZeroShotFeaturizer(CardinalitySource.ESTIMATED)
        dedup = LearnedCardinalityEstimator(database, estimator)
        query = records[0].query
        alias = query.table_names[0]
        adjacency = dedup._join_adjacency(query)
        plan = dedup._fragment_plan(BoundCardinalities(database, query),
                                    frozenset({alias}), adjacency)
        solo = featurizer.featurize(plan, database)
        shared, root_ids = featurizer.featurize_shared(
            [plan.root], query, database)
        assert shared.num_nodes == solo.num_nodes
        assert len(root_ids) == 1


class TestAdjacencyRefactor:
    def test_adjacency_drops_self_joins_keeps_order(self, setup):
        database, records, estimator = setup
        learned = LearnedCardinalityEstimator(database, estimator)
        query = next(r.query for r in records if len(r.query.joins) >= 2)
        adjacency = learned._join_adjacency(query)
        for alias, edges in adjacency.items():
            for neighbour, condition in edges:
                assert neighbour != alias
                assert condition in query.joins


class TestFallbacks:
    def test_non_graph_model_uses_legacy_path(self, setup):
        """A plan-level mock (no encoded-graph surface) still primes —
        through the per-fragment path."""
        database, records, _ = setup

        class PlanLevel:
            is_fitted = True

            def predict_cardinalities(self, plans, database=None):
                return [[100.0] * 64 for _ in plans]

        learned = LearnedCardinalityEstimator(database, PlanLevel())
        assert learned._predict_graphs is None
        query = next(r.query for r in records if len(r.query.tables) >= 2)
        rows = learned.joined_rows(query, frozenset(query.table_names))
        assert rows == 100.0
        assert learned.learned_fragments > 0
        assert learned.primed_graph_nodes == 0

    def test_dedup_disabled_flag(self, setup):
        database, records, estimator = setup
        learned = LearnedCardinalityEstimator(database, estimator,
                                              dedup_fragments=False)
        query = records[0].query
        learned.joined_rows(query, frozenset(query.table_names))
        assert learned.primed_graph_nodes == 0
        assert learned.learned_fragments > 0
