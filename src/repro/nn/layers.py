"""Layers: Linear, the two activations, Sequential, MLP."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.nn.init import kaiming_uniform
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor, leaky_relu, linear, relu

__all__ = ["Linear", "ReLU", "LeakyReLU", "Sequential", "MLP"]


class Linear(Module):
    """Affine map ``y = x W + b``."""

    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            kaiming_uniform(in_features, out_features, rng), name="weight")
        self.bias = Parameter(np.zeros(out_features), name="bias")

    def forward(self, x: Tensor | np.ndarray) -> Tensor | np.ndarray:
        return linear(x, self.weight, self.bias)


class ReLU(Module):
    """Rectified linear unit."""

    def forward(self, x: Tensor | np.ndarray) -> Tensor | np.ndarray:
        return relu(x)


class LeakyReLU(Module):
    def __init__(self, negative_slope: float = 0.01):
        super().__init__()
        self.negative_slope = negative_slope

    def forward(self, x: Tensor | np.ndarray) -> Tensor | np.ndarray:
        return leaky_relu(x, self.negative_slope)


_ACTIVATIONS: dict[str, type[Module]] = {
    "relu": ReLU,
    "leaky_relu": LeakyReLU,
}


class Sequential(Module):
    """Apply modules in order."""

    def __init__(self, *modules: Module):
        super().__init__()
        self._order: list[str] = []
        for index, module in enumerate(modules):
            key = f"layer{index}"
            self.register_module(key, module)
            self._order.append(key)

    def forward(self, x: Tensor | np.ndarray) -> Tensor | np.ndarray:
        for key in self._order:
            x = self._modules[key](x)
        return x

    def __iter__(self):
        return (self._modules[key] for key in self._order)

    def __len__(self) -> int:
        return len(self._order)


class MLP(Module):
    """Multi-layer perceptron with configurable hidden sizes.

    ``hidden_sizes`` may be empty, in which case this is a single Linear.
    """

    def __init__(self, in_features: int, hidden_sizes: Sequence[int],
                 out_features: int, rng: np.random.Generator,
                 activation: str = "leaky_relu"):
        super().__init__()
        if activation not in _ACTIVATIONS:
            raise ValueError(
                f"unknown activation {activation!r}; "
                f"choose from {sorted(_ACTIVATIONS)}"
            )
        layers: list[Module] = []
        previous = in_features
        for width in hidden_sizes:
            layers.append(Linear(previous, width, rng))
            layers.append(_ACTIVATIONS[activation]())
            previous = width
        layers.append(Linear(previous, out_features, rng))
        self.body = Sequential(*layers)
        self.in_features = in_features
        self.out_features = out_features

    def forward(self, x: Tensor | np.ndarray) -> Tensor | np.ndarray:
        return self.body(x)
