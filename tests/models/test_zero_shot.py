"""Zero-shot cost model: learning, generalization, persistence, few-shot."""

import numpy as np
import pytest

from repro.db import SyntheticDatabaseSpec, generate_database
from repro.errors import ModelError
from repro.featurize import CardinalitySource
from repro.models import (
    TrainerConfig,
    ZeroShotConfig,
    ZeroShotCostModel,
    fine_tune,
    q_error_stats,
)

from tests.models.conftest import build_labelled_graphs


def quick_trainer(epochs=30, seed=0):
    return TrainerConfig(epochs=epochs, batch_size=32, seed=seed,
                         early_stopping_patience=epochs)


class TestTraining:
    def test_fit_reduces_loss(self, labelled_graphs):
        model = ZeroShotCostModel(ZeroShotConfig(hidden_dim=32, seed=1))
        history = model.fit(labelled_graphs, quick_trainer())
        assert history.train_losses[-1] < history.train_losses[0]
        assert history.best_epoch >= 0

    def test_accuracy_on_training_distribution(self, labelled_graphs):
        model = ZeroShotCostModel(ZeroShotConfig(hidden_dim=32, seed=2))
        model.fit(labelled_graphs, quick_trainer(epochs=60))
        predictions = model.predict_runtime(labelled_graphs)
        truths = np.exp([g.target_log_runtime for g in labelled_graphs])
        stats = q_error_stats(predictions, truths)
        assert stats.median < 1.5

    def test_zero_shot_generalization_to_unseen_db(self, labelled_graphs):
        """The headline property: good predictions on a database that was
        never part of training."""
        model = ZeroShotCostModel(ZeroShotConfig(hidden_dim=32, seed=3))
        model.fit(labelled_graphs, quick_trainer(epochs=60))
        unseen = generate_database(SyntheticDatabaseSpec(
            name="unseen", seed=777, num_tables=4,
            min_rows=800, max_rows=5_000,
        ))
        test_graphs = build_labelled_graphs([unseen], 30,
                                            CardinalitySource.ACTUAL, seed=5)
        truths = np.exp([g.target_log_runtime for g in test_graphs])
        predictions = model.predict_runtime(test_graphs)
        stats = q_error_stats(predictions, truths)
        assert stats.median < 2.0

    def test_deterministic_given_seed(self, labelled_graphs):
        results = []
        for _ in range(2):
            model = ZeroShotCostModel(ZeroShotConfig(hidden_dim=16, seed=9))
            model.fit(labelled_graphs[:20], quick_trainer(epochs=5, seed=4))
            results.append(model.predict_runtime(labelled_graphs[:5]))
        np.testing.assert_allclose(results[0], results[1])


class TestPersistence:
    def test_save_load_roundtrip(self, labelled_graphs, tmp_path):
        model = ZeroShotCostModel(ZeroShotConfig(hidden_dim=16, seed=0))
        model.fit(labelled_graphs[:30], quick_trainer(epochs=5))
        reference = model.predict_runtime(labelled_graphs[:10])
        model.save(tmp_path / "zs")
        loaded = ZeroShotCostModel.load(tmp_path / "zs")
        np.testing.assert_allclose(
            loaded.predict_runtime(labelled_graphs[:10]), reference
        )

    def test_save_unfitted_rejected(self, tmp_path):
        with pytest.raises(ModelError):
            ZeroShotCostModel().save(tmp_path / "nope")


class TestFewShot:
    def test_fine_tune_improves_on_target(self, labelled_graphs):
        model = ZeroShotCostModel(ZeroShotConfig(hidden_dim=32, seed=5))
        model.fit(labelled_graphs, quick_trainer(epochs=40))
        target = generate_database(SyntheticDatabaseSpec(
            name="target", seed=555, num_tables=3,
            min_rows=500, max_rows=3_000,
        ))
        target_graphs = build_labelled_graphs([target], 40,
                                              CardinalitySource.ACTUAL, seed=8)
        support, evaluation = target_graphs[:20], target_graphs[20:]
        truths = np.exp([g.target_log_runtime for g in evaluation])

        base_stats = q_error_stats(model.predict_runtime(evaluation), truths)
        tuned = fine_tune(model, support, TrainerConfig(
            epochs=25, learning_rate=3e-4, batch_size=8,
            validation_fraction=0.0, early_stopping_patience=25,
        ))
        tuned_stats = q_error_stats(tuned.predict_runtime(evaluation), truths)
        assert tuned_stats.median <= base_stats.median * 1.15

    def test_fine_tune_does_not_mutate_original(self, labelled_graphs):
        model = ZeroShotCostModel(ZeroShotConfig(hidden_dim=16, seed=6))
        model.fit(labelled_graphs[:20], quick_trainer(epochs=3))
        before = model.predict_runtime(labelled_graphs[:5]).copy()
        fine_tune(model, labelled_graphs[20:30], TrainerConfig(
            epochs=3, validation_fraction=0.0, early_stopping_patience=3,
        ))
        np.testing.assert_allclose(model.predict_runtime(labelled_graphs[:5]),
                                   before)

    def test_fine_tune_requires_fitted_model(self, labelled_graphs):
        with pytest.raises(ModelError):
            fine_tune(ZeroShotCostModel(), labelled_graphs[:3])

    def test_fine_tune_requires_graphs(self, labelled_graphs):
        model = ZeroShotCostModel(ZeroShotConfig(hidden_dim=16, seed=0))
        model.fit(labelled_graphs[:10], quick_trainer(epochs=2))
        with pytest.raises(ModelError):
            fine_tune(model, [])
