"""Shared-subplan fragment priming: bit-identical, strictly cheaper.

``LearnedCardinalityEstimator._prime_query`` collapses a query's
O(2^k) canonical fragment plans into one merged DAG that encodes every
shared scan / left-deep-prefix subplan exactly once.  The
non-negotiable property: every fragment estimate equals pricing the
fragment's own plan alone (``fragment_reference.py``) bit for bit
(batch-size-invariant forward pass + identical heuristic annotations on
shared nodes), with rewrites off and on.
"""

import pytest
from fragment_reference import (
    ReferenceCardinalities,
    fragment_plans,
    reference_fragments,
)

from repro.db import SyntheticDatabaseSpec, generate_database
from repro.featurize import CardinalitySource, ZeroShotFeaturizer
from repro.models import TrainerConfig, ZeroShotConfig, get_estimator
from repro.optimizer import LearnedCardinalityEstimator, Planner
from repro.optimizer.planner import PlannerOptions
from repro.workload import WorkloadRunner, WorkloadSpec, generate_workload

pytestmark = pytest.mark.perf

_REWRITES = [PlannerOptions(), PlannerOptions(enable_rewrites=True)]


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


def count_primed_nodes(monkeypatch, estimator):
    """Spy on the core model's graph-level forward, which only priming
    calls: the returned list collects the node count of every plan
    graph primed through it."""
    counted = []
    forward = estimator.model.predict_cardinalities

    def counting(graphs):
        counted.extend(graph.num_nodes for graph in graphs)
        return forward(graphs)

    monkeypatch.setattr(estimator.model, "predict_cardinalities", counting)
    return counted


def planned_queries(database, records, options):
    """The query each record's text is planned as under ``options``
    (rewritten when rewrites are on)."""
    planner = Planner(database, options)
    return [planner.plan(record.query).query for record in records]


def bits(fragments):
    return {aliases: rows.hex() for aliases, rows in fragments.items()}


class TestBitIdentity:
    @pytest.mark.parametrize("options", _REWRITES,
                             ids=["rewrites-off", "rewrites-on"])
    def test_primed_fragments_match_the_reference(self, setup, options,
                                                  monkeypatch):
        database, records, estimator = setup
        learned = LearnedCardinalityEstimator(database, estimator)
        primed = count_primed_nodes(monkeypatch, estimator)
        queries = planned_queries(database, records, options)
        if options.enable_rewrites:
            # Transitive join inference closes some join graphs into
            # cycles: the edge sets canonical plans must stay stable on.
            assert any(len(query.joins) >= len(query.tables)
                       for query in queries)
        reference_count = 0
        for query in queries:
            learned.joined_rows(query, frozenset(query.table_names))
            reference = reference_fragments(learned, query)
            assert bits(learned._cache.get(query)) == bits(reference)
            reference_count += len(reference)
        assert learned.learned_fragments == reference_count > 0
        assert learned.fallback_fragments == 0
        # One merged graph per distinct query.
        assert len(primed) == len(set(queries))

    @pytest.mark.parametrize("options", _REWRITES,
                             ids=["rewrites-off", "rewrites-on"])
    def test_planner_plans_identical_to_the_reference(self, setup, options):
        database, records, estimator = setup
        learned = LearnedCardinalityEstimator(database, estimator)
        reference = ReferenceCardinalities(learned)
        for record in records[:8]:
            plan_a = Planner(database, options,
                             cardinality_estimator=learned).plan(record.query)
            plan_b = Planner(database, options,
                             cardinality_estimator=reference).plan(
                                 record.query)
            shape_a = [(n.label(), n.est_rows) for n in plan_a.nodes()]
            shape_b = [(n.label(), n.est_rows) for n in plan_b.nodes()]
            assert shape_a == shape_b
            assert plan_a.total_cost == plan_b.total_cost


class TestSharedEncoding:
    def test_shared_graph_encodes_fewer_nodes(self, setup, monkeypatch):
        """The merged graph must be strictly smaller than the sum of
        the per-fragment graphs — that's the whole point."""
        database, records, estimator = setup
        featurizer = ZeroShotFeaturizer(CardinalitySource.ESTIMATED)
        query = max((r.query for r in records),
                    key=lambda q: len(q.tables))
        assert len(query.tables) >= 3
        learned = LearnedCardinalityEstimator(database, estimator)
        primed = count_primed_nodes(monkeypatch, estimator)
        learned.joined_rows(query, frozenset(query.table_names))
        shared_nodes = sum(primed)

        per_fragment = sum(featurizer.featurize(plan, database).num_nodes
                           for plan in fragment_plans(learned,
                                                      query).values())
        assert shared_nodes < per_fragment
        # The gate in benchmarks/ demands >=2x on a 5-way join; here we
        # just pin that sharing is real on whatever the workload gave us.
        assert shared_nodes <= per_fragment * 0.8

    def test_featurize_shared_single_root_matches_featurize(self, setup):
        """One root through featurize_shared == plain featurize."""
        database, records, estimator = setup
        featurizer = ZeroShotFeaturizer(CardinalitySource.ESTIMATED)
        learned = LearnedCardinalityEstimator(database, estimator)
        query = records[0].query
        alias = query.table_names[0]
        plan = fragment_plans(learned, query)[frozenset({alias})]
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
