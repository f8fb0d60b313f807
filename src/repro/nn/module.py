"""Module/Parameter abstraction (a small cousin of ``torch.nn.Module``).

Modules register parameters and child modules automatically via
``__setattr__`` and expose ``parameters()``, ``state_dict()`` /
``load_state_dict()`` (keyed by dotted parameter name), plus train/eval
mode toggling.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.nn.tensor import Tensor

__all__ = ["Parameter", "Module"]


class Parameter(Tensor):
    """A tensor that is registered as a trainable model parameter."""

    def __init__(self, data, name: str | None = None):
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class for layers and models."""

    def __init__(self):
        object.__setattr__(self, "_parameters", {})
        object.__setattr__(self, "_modules", {})
        object.__setattr__(self, "training", True)

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def __setattr__(self, key: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[key] = value
        elif isinstance(value, Module):
            self._modules[key] = value
        object.__setattr__(self, key, value)

    def register_module(self, key: str, module: "Module") -> None:
        """Register a child module under a dynamic name (e.g. per node type)."""
        self._modules[key] = module
        object.__setattr__(self, key, module)

    # ------------------------------------------------------------------
    # Parameter iteration
    # ------------------------------------------------------------------
    def parameters(self) -> list[Parameter]:
        return [param for _, param in self._named_parameters()]

    def _named_parameters(self, prefix: str = ""
                          ) -> Iterator[tuple[str, Parameter]]:
        for key, param in self._parameters.items():
            yield f"{prefix}{key}", param
        for key, module in self._modules.items():
            yield from module._named_parameters(prefix=f"{prefix}{key}.")

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    # ------------------------------------------------------------------
    # Train / eval mode
    # ------------------------------------------------------------------
    def train(self) -> "Module":
        object.__setattr__(self, "training", True)
        for module in self._modules.values():
            module.train()
        return self

    def eval(self) -> "Module":
        object.__setattr__(self, "training", False)
        for module in self._modules.values():
            module.eval()
        return self

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: param.data.copy() for name, param in self._named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        own = dict(self._named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)}, "
                f"unexpected={sorted(unexpected)}"
            )
        for name, param in own.items():
            value = np.asarray(state[name], dtype=np.float64)
            if value.shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for {name}: "
                    f"expected {param.data.shape}, got {value.shape}"
                )
            param.data = value.copy()

    # ------------------------------------------------------------------
    # Call protocol
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)
