"""Learned cardinality injection: drop-in behaviour + fallback safety."""

import numpy as np
import pytest

from repro.db import SyntheticDatabaseSpec, generate_database
from repro.errors import FeaturizationError, ModelError, OptimizerError
from repro.featurize import CardinalitySource
from repro.models import (
    TrainerConfig,
    ZeroShotConfig,
    ZeroShotEstimator,
    get_estimator,
)
from repro.optimizer import LearnedCardinalityEstimator, Planner
from repro.optimizer.cardinality import CardinalityEstimator
from repro.optimizer.learned_planner import ZeroShotPlanSelector, candidate_plans
from repro.workload import WorkloadRunner, WorkloadSpec, generate_workload


@pytest.fixture(scope="module")
def setup():
    database = generate_database(SyntheticDatabaseSpec(
        name="lc-synth", seed=31, num_tables=4, min_rows=400, max_rows=3_000,
    ))
    runner = WorkloadRunner(database, seed=5)
    records = runner.run(generate_workload(
        database, WorkloadSpec(num_queries=40, seed=6)))
    estimator = get_estimator(
        "zero-shot",
        config=ZeroShotConfig(hidden_dim=16, cardinality_head=True))
    estimator.fit(records, database, TrainerConfig(
        epochs=5, batch_size=16, early_stopping_patience=5))
    return database, records, estimator


def _plan_shape(plan):
    return [(node.label(), node.est_rows) for node in plan.nodes()]


class RuntimeOnly:
    is_fitted = True


class PlanLevel:
    """Duck-types the cardinality surface without being the estimator."""

    is_fitted = True

    def predict_cardinalities(self, plans, database=None):
        return [[100.0] * 64 for _ in plans]


class TestDropIn:
    def test_fragment_rows_are_learned_and_cached(self, setup):
        database, records, estimator = setup
        learned = LearnedCardinalityEstimator(database, estimator)
        query = next(r.query for r in records if len(r.query.tables) >= 2)
        aliases = frozenset(query.table_names)
        rows = learned.bind(query).joined_rows(aliases)
        assert rows >= 1.0
        assert learned.learned_fragments >= 1
        before = learned.learned_fragments
        assert learned.bind(query).joined_rows(aliases) == rows  # cache hit
        assert learned.learned_fragments == before

    def test_planner_accepts_injected_estimator(self, setup):
        database, records, estimator = setup
        learned = LearnedCardinalityEstimator(database, estimator)
        for record in records[:8]:
            plan = Planner(database,
                           cardinality_estimator=learned).plan(record.query)
            assert plan.num_nodes >= 2
        assert learned.learned_fragments > 0

    def test_query_cache_is_lru_bounded(self, setup):
        """A long-lived estimator must not pin every query it ever
        priced: the per-query fragment cache is LRU-bounded."""
        database, records, estimator = setup
        learned = LearnedCardinalityEstimator(database, estimator,
                                              cached_queries=2)
        queries = [r.query for r in records[:4]]
        for query in queries:
            learned.bind(query).joined_rows(frozenset(query.table_names))
        assert len(learned._cache) == 2
        # The most recent queries survive; the oldest were evicted.
        survivors = [learned._cache.get(query) for query in queries]
        assert survivors[:2] == [None, None]
        for query, fragments in zip(queries[2:], survivors[2:]):
            assert frozenset(query.table_names) in fragments
        with pytest.raises(ModelError, match="positive"):
            LearnedCardinalityEstimator(database, estimator,
                                        cached_queries=0)

    def test_unknown_alias_still_rejected(self, setup):
        database, records, estimator = setup
        learned = LearnedCardinalityEstimator(database, estimator)
        with pytest.raises(OptimizerError, match="unknown aliases"):
            learned.bind(records[0].query).joined_rows(frozenset({"nope"}))

    @pytest.mark.parametrize("model", [RuntimeOnly, PlanLevel],
                             ids=lambda model: model.__name__)
    def test_model_without_cardinality_surface_rejected(self, setup, model):
        database, _, _ = setup
        with pytest.raises(ModelError, match="cardinality head"):
            LearnedCardinalityEstimator(database, model())

    def test_wrapped_head_model_estimates_like_its_estimator(self, setup):
        """A head model wrapped as ``ZeroShotEstimator(model=...)`` — as
        the experiment context wraps its models — is accepted and
        gives the same fragment estimates as the estimator it came
        from."""
        database, records, estimator = setup
        wrapped = ZeroShotEstimator(model=estimator.model)
        query = next(r.query for r in records if len(r.query.tables) >= 2)
        aliases = frozenset(query.table_names)
        estimates = [
            LearnedCardinalityEstimator(database, model).bind(
                query).joined_rows(aliases)
            for model in (estimator, wrapped)]
        assert estimates[0] == estimates[1]

    @pytest.mark.parametrize("variant, match", [
        (lambda estimator: ZeroShotEstimator(config=estimator.model.config),
         "fitted"),
        (lambda estimator: ZeroShotEstimator(
            model=estimator.model, source=CardinalitySource.ACTUAL),
         "estimated cardinalities"),
    ], ids=["unfitted", "actual-cardinalities"])
    def test_undeployable_head_estimator_rejected(self, setup, variant,
                                                  match):
        """Having the head is not enough: the estimator must be fitted
        and featurize with the estimated cardinalities that unexecuted
        plans have."""
        database, _, estimator = setup
        with pytest.raises(ModelError, match=match):
            LearnedCardinalityEstimator(database, variant(estimator))

    def test_zero_shot_estimator_without_the_head_rejected(self, setup):
        """The flag, not the class, decides: a fitted runtime-only
        zero-shot estimator is refused."""
        database, records, _ = setup
        headless = get_estimator(
            "zero-shot", config=ZeroShotConfig(hidden_dim=8)).fit(
                records[:8], database, TrainerConfig(epochs=1, batch_size=8))
        with pytest.raises(ModelError, match="cardinality head"):
            LearnedCardinalityEstimator(database, headless)


#: Where priming can fail on a fitted estimator: ``(object of the
#: estimator, method, error it raises)``.
_PRIMING_FAILURES = {
    "forward": (lambda estimator: estimator.model, "predict_cardinalities",
                ModelError),
    "featurize": (lambda estimator: estimator.featurizer,
                  "featurize_shared", FeaturizationError),
}


class TestFallback:
    @pytest.mark.parametrize("owner, method, error",
                             _PRIMING_FAILURES.values(),
                             ids=_PRIMING_FAILURES.keys())
    def test_failed_priming_plans_like_classical(self, setup, monkeypatch,
                                                 owner, method, error):
        """When priming fails every fragment takes the heuristic path,
        so the DP search must produce bit-identical plans — the
        acceptance property that learned == heuristic estimates imply
        identical plans."""
        database, records, estimator = setup

        def explode(*args, **kwargs):
            raise error("no predictions today")

        monkeypatch.setattr(owner(estimator), method, explode)
        broken = LearnedCardinalityEstimator(database, estimator)
        for record in records[:12]:
            classical = Planner(database).plan(record.query)
            injected = Planner(
                database, cardinality_estimator=broken).plan(record.query)
            assert _plan_shape(classical) == _plan_shape(injected)
            assert classical.total_cost == injected.total_cost
        assert broken.learned_fragments == 0
        assert broken.fallback_fragments > 0

    def test_disconnected_fragment_falls_back_to_heuristic(self, setup):
        database, records, estimator = setup
        query = next(r.query for r in records if len(r.query.tables) >= 3)
        learned = LearnedCardinalityEstimator(database, estimator)
        heuristic = CardinalityEstimator(database)
        # Find a disconnected pair (the DP never asks for one, but the
        # drop-in surface must still answer consistently).
        aliases = query.table_names
        from repro.optimizer.join_order import connected_subsets
        connected = set(connected_subsets(query))
        disconnected = None
        for a in aliases:
            for b in aliases:
                if a < b and frozenset({a, b}) not in connected:
                    disconnected = frozenset({a, b})
        if disconnected is None:
            pytest.skip("workload produced no disconnected pair")
        before = learned.fallback_fragments
        rows = learned.bind(query).joined_rows(disconnected)
        assert rows == heuristic.bind(query).joined_rows(disconnected)
        assert learned.fallback_fragments == before + 1


class TestPlanSelector:
    def test_selector_accepts_cardinality_estimator(self, setup, tiny_imdb):
        database, records, estimator = setup
        learned = LearnedCardinalityEstimator(database, estimator)
        plans = candidate_plans(database, records[0].query,
                                cardinality_estimator=learned)
        assert plans
        selector = ZeroShotPlanSelector(database, estimator,
                                        cardinality_estimator=learned)
        choice = selector.choose(records[0].query)
        assert choice.plan.num_nodes >= 1
        assert np.isfinite(choice.predicted_seconds)
