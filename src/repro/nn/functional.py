"""The loss the cost models train under, on :class:`repro.nn.tensor.Tensor`."""

from __future__ import annotations

from repro.nn.tensor import Tensor

__all__ = ["q_loss"]


def q_loss(prediction: Tensor, target: Tensor) -> Tensor:
    """Mean symmetric log-ratio penalty, a smooth surrogate of the Q-error.

    Both arguments are *log*-runtimes; the Q-error of a pair is
    ``exp(|log_pred - log_true|)``, so penalising the absolute log
    difference directly optimizes the median Q-error.
    """
    return (prediction - target).abs().mean()
