"""Weight initialisation."""

from __future__ import annotations

import numpy as np

__all__ = ["kaiming_uniform"]


def kaiming_uniform(fan_in: int, fan_out: int,
                    rng: np.random.Generator) -> np.ndarray:
    """He/Kaiming uniform init, appropriate for ReLU-family activations."""
    if fan_in <= 0 or fan_out <= 0:
        raise ValueError(f"fan_in and fan_out must be positive, got {fan_in}, {fan_out}")
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))
