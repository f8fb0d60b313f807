"""Baseline models: MSCN, E2E, scaled optimizer cost, flat ablation, metrics."""

import numpy as np
import pytest

from repro.engine import execute_plan
from repro.errors import ModelError
from repro.featurize import (
    CardinalitySource,
    E2EFeaturizer,
    MSCNFeaturizer,
    ZeroShotFeaturizer,
)
from repro.models import (
    E2ECostModel,
    FlatVectorCostModel,
    MSCNCostModel,
    QErrorStats,
    ScaledOptimizerCost,
    TrainerConfig,
    q_error,
    q_error_stats,
)
from repro.models.e2e import E2EConfig
from repro.models.mscn import MSCNConfig
from repro.optimizer import plan_query
from repro.runtime import RuntimeSimulator
from repro.sql import parse_query


def workload(db, count=50, seed=0):
    """(query, plan, runtime) triples on one database."""
    rng = np.random.default_rng(seed)
    simulator = RuntimeSimulator(db, rng=np.random.default_rng(seed))
    triples = []
    for _ in range(count):
        year = int(rng.integers(1950, 2020))
        choice = rng.integers(0, 3)
        if choice == 0:
            text = (f"SELECT COUNT(*) FROM title t "
                    f"WHERE t.production_year > {year}")
        elif choice == 1:
            text = (f"SELECT COUNT(*) FROM title t, cast_info ci "
                    f"WHERE t.id = ci.movie_id "
                    f"AND t.production_year > {year}")
        else:
            kind = int(rng.integers(0, 4))
            text = (f"SELECT COUNT(*) FROM title t, movie_companies mc "
                    f"WHERE t.id = mc.movie_id AND mc.company_type_id = {kind} "
                    f"AND t.production_year <= {year}")
        query = parse_query(text)
        plan = plan_query(db, query)
        execute_plan(db, plan)
        runtime = simulator.simulate(plan).total_seconds
        triples.append((query, plan, runtime))
    return triples


@pytest.fixture(scope="module")
def imdb_workload(tiny_imdb_module):
    return workload(tiny_imdb_module, count=60, seed=3)


@pytest.fixture(scope="module")
def tiny_imdb_module():
    from repro.db import make_imdb_database
    return make_imdb_database(scale=0.04, seed=7)


def trainer(epochs=40):
    return TrainerConfig(epochs=epochs, batch_size=16,
                         early_stopping_patience=epochs, seed=0)


class TestMSCNModel:
    def test_learns_workload(self, tiny_imdb_module, imdb_workload):
        queries = [q for q, _, _ in imdb_workload]
        featurizer = MSCNFeaturizer(tiny_imdb_module).fit(queries)
        samples = [featurizer.featurize(q, r) for q, _, r in imdb_workload]
        model = MSCNCostModel(featurizer, MSCNConfig(hidden_dim=32))
        history = model.fit(samples, trainer())
        assert history.train_losses[-1] < history.train_losses[0]
        predictions = model.predict_runtime(samples)
        truths = np.array([r for _, _, r in imdb_workload])
        assert q_error_stats(predictions, truths).median < 2.5

    def test_unfitted_featurizer_rejected(self, tiny_imdb_module):
        with pytest.raises(ModelError):
            MSCNCostModel(MSCNFeaturizer(tiny_imdb_module))

    def test_partially_labelled_batch_rejected(self, tiny_imdb_module,
                                               imdb_workload):
        from repro.models.mscn import collate_mscn
        queries = [q for q, _, _ in imdb_workload]
        featurizer = MSCNFeaturizer(tiny_imdb_module).fit(queries)
        labelled = featurizer.featurize(queries[0], 0.5)
        unlabelled = featurizer.featurize(queries[1])
        with pytest.raises(ModelError, match="missing runtime"):
            collate_mscn([labelled, unlabelled])


class TestE2EModel:
    def test_learns_workload(self, tiny_imdb_module, imdb_workload):
        plans = [p for _, p, _ in imdb_workload]
        featurizer = E2EFeaturizer(tiny_imdb_module).fit(plans)
        samples = [featurizer.featurize(p, r) for _, p, r in imdb_workload]
        model = E2ECostModel(featurizer, E2EConfig(hidden_dim=32))
        history = model.fit(samples, trainer())
        assert history.train_losses[-1] < history.train_losses[0]
        predictions = model.predict_runtime(samples)
        truths = np.array([r for _, _, r in imdb_workload])
        assert q_error_stats(predictions, truths).median < 2.0

    def test_unfitted_featurizer_rejected(self, tiny_imdb_module):
        with pytest.raises(ModelError):
            E2ECostModel(E2EFeaturizer(tiny_imdb_module))


class TestScaledOptimizerCost:
    def test_perfect_linear_relation(self):
        costs = np.array([10.0, 20.0, 30.0, 40.0])
        runtimes = 0.01 * costs + 0.5
        model = ScaledOptimizerCost().fit(costs, runtimes)
        np.testing.assert_allclose(model.predict_runtime(costs), runtimes,
                                   rtol=1e-9)

    def test_on_real_workload(self, tiny_imdb_module, imdb_workload):
        costs = np.array([p.total_cost for _, p, _ in imdb_workload])
        runtimes = np.array([r for _, _, r in imdb_workload])
        model = ScaledOptimizerCost().fit(costs, runtimes)
        stats = q_error_stats(model.predict_runtime(costs), runtimes)
        assert stats.median < 5.0  # informative, but imperfect

    def test_predictions_positive(self):
        model = ScaledOptimizerCost().fit(np.array([1.0, 2.0]),
                                          np.array([1.0, 0.5]))
        assert (model.predict_runtime(np.array([1e9])) > 0).all()

    def test_validation(self):
        with pytest.raises(ModelError):
            ScaledOptimizerCost().fit(np.array([1.0]), np.array([1.0]))
        with pytest.raises(ModelError):
            ScaledOptimizerCost().fit(np.array([1.0, 2.0]),
                                      np.array([1.0, -1.0]))
        with pytest.raises(ModelError):
            ScaledOptimizerCost().predict_runtime(np.array([1.0]))


class TestFlatAblation:
    def test_learns_but_structure_helps(self, tiny_imdb_module, imdb_workload):
        featurizer = ZeroShotFeaturizer(CardinalitySource.ACTUAL)
        graphs = [featurizer.featurize(p, tiny_imdb_module, r)
                  for _, p, r in imdb_workload]
        model = FlatVectorCostModel(seed=0)
        history = model.fit(graphs, trainer())
        assert history.train_losses[-1] < history.train_losses[0]
        predictions = model.predict_runtime(graphs)
        truths = np.array([r for _, _, r in imdb_workload])
        assert q_error_stats(predictions, truths).median < 3.0


class TestMetrics:
    def test_q_error_basics(self):
        errors = q_error(np.array([2.0, 0.5, 1.0]), np.array([1.0, 1.0, 1.0]))
        np.testing.assert_allclose(errors, [2.0, 2.0, 1.0])

    def test_q_error_symmetry(self):
        a = np.array([3.0])
        b = np.array([1.0])
        assert q_error(a, b) == q_error(b, a)

    def test_q_error_positive_required(self):
        with pytest.raises(ModelError):
            q_error(np.array([0.0]), np.array([1.0]))

    def test_q_error_shape_mismatch(self):
        with pytest.raises(ModelError):
            q_error(np.array([1.0]), np.array([1.0, 2.0]))

    def test_stats_row(self):
        stats = q_error_stats(np.array([1.0, 2.0, 4.0]),
                              np.array([1.0, 1.0, 1.0]))
        assert isinstance(stats, QErrorStats)
        median, p95, maximum = stats.row()
        assert median == 2.0
        assert maximum == 4.0
        assert p95 <= maximum

    def test_stats_empty_rejected(self):
        with pytest.raises(ModelError):
            q_error_stats(np.array([]), np.array([]))
