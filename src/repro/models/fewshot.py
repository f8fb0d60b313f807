"""Few-shot learning: fine-tune a zero-shot model on the unseen database.

The paper (Sections 1 and 4.3): instead of using the zero-shot model
out-of-the-box, retrain it with a *few* queries from the target
database.  Because system behaviour is already internalized, far fewer
queries are needed than for workload-driven training from scratch.
"""

from __future__ import annotations

from repro.errors import ModelError
from repro.featurize.graph import PlanGraph
from repro.models.trainer import TrainerConfig
from repro.models.zero_shot import ZeroShotCostModel

__all__ = ["fine_tune"]


def fine_tune(model: ZeroShotCostModel, graphs: list[PlanGraph],
              trainer: TrainerConfig | None = None) -> ZeroShotCostModel:
    """Return a fine-tuned *copy* of ``model`` (the original is untouched).

    ``graphs`` are labelled plans from the target database, held to the
    same contract as ``fit``'s (runtime labels, system nodes iff the
    model is hardware-aware, cardinality labels iff it has the head).
    The copy keeps the zero-shot model's calibration — feature scalers
    and target statistics fitted on the training fleet — so features
    stay on the scale the weights expect, and trains under the same
    loss closures as ``fit`` (multi-task models fine-tune multi-task,
    so the trunk keeps serving both readouts).
    """
    if not model.is_fitted:
        raise ModelError("fine_tune requires a fitted zero-shot model")
    model.check_training_samples(graphs)
    tuned = model.clone()
    tuned.fit_weights(graphs, trainer or TrainerConfig(
        epochs=30, learning_rate=2e-4, batch_size=min(16, len(graphs)),
        validation_fraction=0.0, early_stopping_patience=30,
    ))
    return tuned
