"""Generic training loop shared by all learned cost models.

Models supply two closures:

* ``forward(batch) -> Tensor | ndarray`` — predictions (log-runtimes),
* ``targets(batch) -> ndarray`` — labels (log-runtimes),

and the trainer handles shuffling, mini-batching, optimization, gradient
clipping, validation and early stopping.  The loss operates on
log-runtimes: the absolute log difference
(:func:`repro.nn.functional.q_loss`) directly optimizes the median
Q-error the paper reports.

Every mini-batch is merged by the model's ``collate`` into one prebuilt
batch object before the closures see it — and the validation set is
collated **once**, so the fixed validation batch is never rebuilt
across epochs.  Models that precompute their featurization (e.g. the
zero-shot model's :class:`~repro.featurize.batch.EncodedGraph`) pass
the cheap vectorized merge as ``collate`` and featurize exactly once
per fit.

:class:`CoreCostModel` is the base the four learned core models share:
it owns the target statistics and the single ``fit`` / ``predict`` /
``restore`` path over that loop, so a concrete model is a constructor
plus a collate function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, ClassVar, Sequence

import numpy as np

from repro.errors import ModelError
from repro.nn import (
    Adam,
    BatchIterator,
    Tensor,
    clip_grad_norm,
    no_grad,
    train_validation_split,
)
from repro.nn import functional as F
from repro.nn.module import Module
from repro.nn.serialize import load_state

__all__ = ["CoreCostModel", "TrainerConfig", "TrainingHistory",
           "collate_targets", "saved_config", "standardization",
           "train_model"]


def collate_targets(labels: list, kind: str) -> np.ndarray | None:
    """Label vector for a collated batch: all labels, or none.

    A mixed batch is always a caller bug (training requires every
    label, inference none), so it raises instead of silently yielding
    ``targets=None`` and failing later with an opaque ``TypeError``.
    """
    missing = sum(label is None for label in labels)
    if missing == len(labels):
        return None
    if missing:
        raise ModelError(
            f"{missing} of {len(labels)} {kind} samples are missing runtime "
            f"labels; label all samples (training) or none (inference)"
        )
    return np.asarray(labels)


@dataclass(frozen=True)
class TrainerConfig:
    """Hyper-parameters of one training run."""

    epochs: int = 60
    batch_size: int = 64
    learning_rate: float = 1e-3
    weight_decay: float = 1e-5
    clip_norm: float = 5.0
    validation_fraction: float = 0.15
    early_stopping_patience: int = 12
    seed: int = 0

    def __post_init__(self):
        if self.epochs <= 0 or self.batch_size <= 0:
            raise ModelError("epochs and batch_size must be positive")
        # Each check fails on NaN, which compares false with everything
        # (a NaN learning rate would train nothing and keep no epoch).
        if not 0 < self.learning_rate < math.inf:
            raise ModelError("learning_rate must be positive and finite")
        if not self.weight_decay >= 0:
            raise ModelError("weight_decay must be non-negative")
        if not self.clip_norm > 0:
            raise ModelError("clip_norm must be positive")
        if not 0.0 <= self.validation_fraction < 1.0:
            raise ModelError("validation_fraction must be in [0, 1)")
        if self.early_stopping_patience < 1:
            raise ModelError("early_stopping_patience must be at least 1")


@dataclass
class TrainingHistory:
    """Per-epoch losses and the selected model epoch."""

    train_losses: list[float] = field(default_factory=list)
    validation_losses: list[float] = field(default_factory=list)
    best_epoch: int = -1
    best_validation_loss: float = float("inf")


def train_model(model: Module, samples: Sequence,
                forward: Callable[[Any], Tensor | np.ndarray],
                targets: Callable[[Any], Tensor | np.ndarray],
                config: TrainerConfig,
                collate: Callable[[list], Any]) -> TrainingHistory:
    """Train ``model`` on ``samples``; restores the best-validation weights.

    ``collate`` merges a list of samples into the batch object
    ``forward``/``targets`` receive; the validation batch is built once
    up front instead of being re-collated every epoch.
    """
    if not samples:
        raise ModelError("cannot train on an empty sample list")
    rng = np.random.default_rng(config.seed)

    if config.validation_fraction > 0 and len(samples) >= 5:
        train_set, validation_set = train_validation_split(
            list(samples), config.validation_fraction, rng
        )
    else:
        train_set, validation_set = list(samples), []

    validation_batch = collate(validation_set) if validation_set else None

    optimizer = Adam(model.parameters(), lr=config.learning_rate,
                     weight_decay=config.weight_decay)
    history = TrainingHistory()
    best_state = model.state_dict()
    patience_left = config.early_stopping_patience

    for epoch in range(config.epochs):
        model.train()
        iterator = BatchIterator(train_set, config.batch_size, rng=rng)
        epoch_losses = []
        for batch in iterator:
            batch = collate(batch)
            optimizer.zero_grad()
            predictions = forward(batch)
            labels = targets(batch)
            loss = F.q_loss(predictions, labels)
            loss.backward()
            clip_grad_norm(optimizer.parameters, config.clip_norm)
            optimizer.step()
            epoch_losses.append(loss.item())
        history.train_losses.append(float(np.mean(epoch_losses)))

        if validation_set:
            model.eval()
            with no_grad():
                predictions = forward(validation_batch)
                labels = targets(validation_batch)
                validation_loss = F.q_loss(predictions, labels).item()
        else:
            validation_loss = history.train_losses[-1]
        history.validation_losses.append(validation_loss)

        if validation_loss < history.best_validation_loss - 1e-6:
            history.best_validation_loss = validation_loss
            history.best_epoch = epoch
            best_state = model.state_dict()
            patience_left = config.early_stopping_patience
        else:
            patience_left -= 1
            if patience_left <= 0:
                break

    model.load_state_dict(best_state)
    model.eval()
    return history


def saved_config(config_class, saved: dict):
    """The ``config_class`` a saved model's manifest describes.

    ``config_class.removed_fields`` maps each field manifests written
    by earlier versions still carry to the one value it can still
    mean: at that value the key is dropped, at any other the model
    cannot be rebuilt and loading raises.  JSON has no tuples: the
    hidden-layer fields come back as lists.
    """
    saved = dict(saved)
    for key, supported in config_class.removed_fields.items():
        if saved.pop(key, supported) != supported:
            raise ModelError(
                f"saved {config_class.__name__} sets {key!r}, which is no "
                f"longer configurable (only {supported!r} is supported)")
    return config_class(**{
        key: tuple(value) if isinstance(value, list) else value
        for key, value in saved.items()})


def standardization(values: np.ndarray) -> tuple[float, float]:
    """``(mean, std)`` of training targets, the std floored so constant
    targets standardize to zero instead of dividing by zero."""
    return float(values.mean()), float(max(values.std(), 1e-6))


class CoreCostModel:
    """What the learned core models share: one fit, one predict, one restore.

    A core model wraps a net over its own sample type.  Samples pass
    through :meth:`encode` (the per-sample precompute estimators cache;
    the identity unless a model scales features first) and lists of
    encoded samples through :meth:`collate` into the batch the net
    consumes.  This base supplies the rest: the log-runtime target
    statistics shipped with the weights, the single :meth:`fit` body
    over :func:`train_model`, prediction under ``no_grad`` with
    de-standardization, and :meth:`restore`, which every ``load`` uses.
    A subclass is a constructor plus ``collate`` (and the hooks it
    genuinely differs in).
    """

    #: Noun for error messages ("MSCN", "zero-shot", ...).
    kind: ClassVar[str] = "cost-model"

    def __init__(self, net: Module):
        self.net = net
        self.history: TrainingHistory | None = None
        #: Log-runtime targets are standardized for training; the
        #: statistics are shipped with the model.
        self.target_mean = 0.0
        self.target_std = 1.0
        self._fitted = False

    @property
    def is_fitted(self) -> bool:
        return self._fitted

    def _require_fitted(self) -> None:
        if not self.is_fitted:
            raise ModelError("model must be fitted (or loaded) before predict")

    # -- hooks ---------------------------------------------------------
    def _encode(self, samples: list) -> list:
        """Samples → encoded samples (what :meth:`collate` consumes)."""
        return samples

    def collate(self, encoded: list) -> Any:
        """Merge encoded samples into one batch with a ``targets`` field."""
        raise NotImplementedError

    def _forward(self, batch: Any) -> Tensor | np.ndarray:
        """Standardized log-runtime predictions for a collated batch."""
        return self.net(batch)

    def check_training_samples(self, samples: list) -> None:
        """Reject inputs no training run (fit or fine-tune) can use."""
        if not samples:
            raise ModelError(
                f"{self.kind} training needs at least one sample")
        if any(s.target_log_runtime is None for s in samples):
            raise ModelError(
                f"all {self.kind} training samples need runtime labels")

    def _calibrate(self, samples: list) -> None:
        """Fit everything shipped beside the weights (target statistics,
        feature scalers) on the training samples."""
        self.target_mean, self.target_std = standardization(
            np.asarray([s.target_log_runtime for s in samples]))

    def training_closures(self):
        """``(forward, targets)`` closures of the training loss, using
        the model's *current* calibration — shared by :meth:`fit` and
        few-shot fine-tuning, so the two can never drift apart."""
        def targets(batch: Any) -> np.ndarray:
            return (batch.targets - self.target_mean) / self.target_std

        return self._forward, targets

    # -- training ------------------------------------------------------
    def fit(self, samples: list,
            trainer: TrainerConfig | None = None) -> TrainingHistory:
        """Train on labelled samples.

        Inputs are validated before any state changes; every sample is
        encoded **once** and each mini-batch (and the one validation
        batch) assembled by :meth:`collate`.
        """
        self.check_training_samples(samples)
        self._calibrate(samples)
        return self.fit_weights(samples, trainer)

    def fit_weights(self, samples: list,
                    trainer: TrainerConfig | None = None) -> TrainingHistory:
        """Run the training loop under the *current* calibration: the
        second half of :meth:`fit`, and all of a fine-tuning run."""
        forward, targets = self.training_closures()
        self.history = train_model(self.net, self._encode(samples), forward,
                                   targets, trainer or TrainerConfig(),
                                   self.collate)
        self._fitted = True
        return self.history

    # -- prediction ----------------------------------------------------
    def encode(self, samples: list) -> list:
        """The per-sample precompute of prediction, with this model's
        calibration (feature scalers); needs a fitted model."""
        self._require_fitted()
        return self._encode(samples)

    def predict_log_from_encoded(self, encoded: list) -> np.ndarray:
        """Predicted log-runtimes for samples encoded ahead of time.

        :meth:`encode` is the expensive per-sample step; callers that
        hold plans for repeated prediction — notably
        :class:`repro.serve.CostModelService` — cache it and pay only
        the cheap collate + forward here.
        """
        self._require_fitted()
        if not len(encoded):
            return np.zeros(0)
        batch = self.collate(encoded)
        with no_grad():
            normalized = self._forward(batch)
        return normalized * self.target_std + self.target_mean

    def predict_log_runtime(self, samples: list) -> np.ndarray:
        """Predicted log-runtimes."""
        return self.predict_log_from_encoded(self.encode(samples))

    def predict_runtime(self, samples: list) -> np.ndarray:
        """Predicted runtimes in seconds."""
        return np.exp(self.predict_log_runtime(samples))

    # -- persistence ---------------------------------------------------
    def restore(self, weights_path, target_mean: float = 0.0,
                target_std: float = 1.0) -> None:
        """Load saved weights and target statistics (the inverse of
        saving them); the model is fitted afterwards."""
        load_state(self.net, weights_path)
        self.target_mean = float(target_mean)
        self.target_std = float(target_std)
        self._fitted = True
