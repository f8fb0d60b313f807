"""Layers: Linear and the MLP built of them."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.nn.init import kaiming_uniform
from repro.nn.module import Module, Parameter
from repro.nn.tensor import _ACTIVATIONS, Tensor, linear

__all__ = ["Linear", "MLP"]


class Linear(Module):
    """The parameters of an affine map ``y = x W + b``."""

    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator):
        super().__init__()
        self.weight = Parameter(
            kaiming_uniform(in_features, out_features, rng), name="weight")
        self.bias = Parameter(np.zeros(out_features), name="bias")


class MLP(Module):
    """Multi-layer perceptron with configurable hidden sizes.

    ``hidden_sizes`` may be empty, in which case this is a single
    ``Linear``.  Every layer but the last applies ``activation``; the
    forward is one :func:`~repro.nn.tensor.linear` op per layer.
    """

    def __init__(self, in_features: int, hidden_sizes: Sequence[int],
                 out_features: int, rng: np.random.Generator,
                 activation: str = "leaky_relu"):
        super().__init__()
        if activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}; "
                             f"choose from {_ACTIVATIONS}")
        widths = [in_features, *hidden_sizes, out_features]
        self.body = Module()
        self._layers: list[tuple[Parameter, Parameter, str | None]] = []
        for index, (fan_in, fan_out) in enumerate(zip(widths, widths[1:])):
            layer = Linear(fan_in, fan_out, rng)
            # Each activation was a module of its own at the odd
            # positions; saved weights are keyed by these names.
            self.body.register_module(f"layer{2 * index}", layer)
            last = index == len(widths) - 2
            self._layers.append(
                (layer.weight, layer.bias, None if last else activation))

    def forward(self, x: Tensor | np.ndarray) -> Tensor | np.ndarray:
        for weight, bias, activation in self._layers:
            x = linear(x, weight, bias, activation)
        return x
