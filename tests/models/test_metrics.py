"""Q-error metric edge cases and the driver-boundary prediction clamp."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.models import clamp_predictions, q_error, q_error_stats
from repro.models.metrics import PREDICTION_EPSILON


class TestQError:
    def test_basic_values(self):
        errors = q_error(np.array([2.0, 0.5, 3.0]), np.array([1.0, 1.0, 3.0]))
        np.testing.assert_allclose(errors, [2.0, 2.0, 1.0])

    def test_non_positive_inputs_rejected(self):
        with pytest.raises(ModelError, match="strictly positive"):
            q_error(np.array([0.0]), np.array([1.0]))
        with pytest.raises(ModelError, match="strictly positive"):
            q_error(np.array([1.0]), np.array([-2.0]))


class TestClampPredictions:
    def test_exp_underflow_regression(self):
        """The driver-boundary bug: ``exp`` of a very negative log
        prediction underflows to exactly 0.0, which q_error rejects —
        clamping at the boundary keeps long experiment runs alive and
        reports the prediction as astronomically bad."""
        predictions = np.exp(np.array([-1000.0, 0.0]))  # [0.0, 1.0]
        assert predictions[0] == 0.0
        with pytest.raises(ModelError):
            q_error(predictions, np.array([1.0, 1.0]))
        clamped = clamp_predictions(predictions)
        stats = q_error_stats(clamped, np.array([1.0, 1.0]))
        assert stats.maximum == 1.0 / PREDICTION_EPSILON
        assert stats.median > 1.0

    def test_positive_predictions_untouched(self):
        values = np.array([0.25, 1.0, 3e4])
        np.testing.assert_array_equal(clamp_predictions(values), values)

    def test_nan_and_negative_inputs_clamped(self):
        clamped = clamp_predictions(np.array([np.nan, -5.0, np.inf]))
        assert clamped[0] == PREDICTION_EPSILON
        assert clamped[1] == PREDICTION_EPSILON
        assert clamped[2] == np.inf

    def test_figure3_driver_survives_underflowing_estimator(self):
        """Regression: an estimator whose predictions underflow to 0.0
        must not crash the figure3 evaluation path (it used to raise
        ModelError from inside q_error)."""
        from types import SimpleNamespace

        from repro.experiments.figure3 import evaluate_zero_shot
        from repro.featurize.graph import CardinalitySource

        class Underflowing:
            def predict_runtime(self, plans, database):
                return np.exp(np.full(len(plans), -1000.0))  # exact 0.0

        records = [SimpleNamespace(plan=object(), runtime_seconds=0.01)
                   for _ in range(4)]
        context = SimpleNamespace(
            evaluation_records={"scale": records},
            imdb=None,
            estimator=lambda source: Underflowing(),
            evaluation_truths=lambda benchmark: np.full(4, 0.01),
        )
        stats = evaluate_zero_shot(context, "scale",
                                   CardinalitySource.ACTUAL)
        assert stats.maximum == 0.01 / PREDICTION_EPSILON
