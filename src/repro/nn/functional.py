"""The loss the cost models train under, on ``Tensor | ndarray``."""

from __future__ import annotations

import numpy as np

from repro.nn import tensor as T
from repro.nn.tensor import Tensor

__all__ = ["q_loss"]


def q_loss(prediction: Tensor | np.ndarray,
           target: Tensor | np.ndarray) -> Tensor | np.ndarray:
    """Mean symmetric log-ratio penalty, a smooth surrogate of the Q-error.

    Both arguments are *log*-runtimes of one shape; the Q-error of a
    pair is ``exp(|log_pred - log_true|)``, so penalising the absolute
    log difference directly optimizes the median Q-error.  Shapes that
    differ raise: broadcasting a ``(n,)`` against an ``(n, 1)`` would
    silently average all ``n * n`` pairs.
    """
    if prediction.shape != target.shape:
        raise ValueError(
            f"q_loss needs prediction and target of one shape, got "
            f"{prediction.shape} and {target.shape}")
    return T.mean(T.abs(T.sub(prediction, target)))
