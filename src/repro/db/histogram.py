"""Equi-depth histograms, the backbone of the Postgres-style estimator.

Postgres stores ``histogram_bounds`` per column: boundaries of buckets
holding (approximately) equal row counts.  Selectivity of a range
predicate is the fraction of buckets (with linear interpolation inside
the boundary buckets) the range covers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["EquiDepthHistogram"]


@dataclass(frozen=True)
class EquiDepthHistogram:
    """Equi-depth histogram over a numeric column.

    Attributes
    ----------
    bounds:
        Monotonically non-decreasing bucket boundaries of length
        ``num_buckets + 1``.
    """

    bounds: np.ndarray

    @classmethod
    def build(cls, values: np.ndarray, num_buckets: int = 32) -> "EquiDepthHistogram":
        """Construct from raw column values (NULLs must be pre-filtered)."""
        if num_buckets <= 0:
            raise ValueError(f"num_buckets must be positive, got {num_buckets}")
        if len(values) == 0:
            return cls(bounds=np.array([0.0, 0.0]))
        quantiles = np.linspace(0.0, 1.0, num_buckets + 1)
        bounds = np.quantile(values.astype(np.float64), quantiles)
        return cls(bounds=np.asarray(bounds, dtype=np.float64))

    @property
    def num_buckets(self) -> int:
        return len(self.bounds) - 1

    @property
    def min_value(self) -> float:
        return float(self.bounds[0])

    @property
    def max_value(self) -> float:
        return float(self.bounds[-1])

    def _selectivity_below(self, value: float, inclusive: bool) -> float:
        """Estimated fraction of rows with column < value (or <=)."""
        bounds = self.bounds
        if len(bounds) < 2 or bounds[0] == bounds[-1]:
            # Degenerate histogram (constant column): all-or-nothing.
            if value > bounds[0]:
                return 1.0
            if value == bounds[0]:
                return 1.0 if inclusive else 0.0
            return 0.0
        if value < bounds[0]:
            return 0.0
        if value >= bounds[-1]:
            if value > bounds[-1]:
                return 1.0
            return 1.0 if inclusive else 1.0 - 1.0 / max(self.num_buckets * 10, 1)
        # Locate the bucket containing `value` and interpolate within it.
        bucket = int(np.searchsorted(bounds, value, side="right")) - 1
        bucket = min(max(bucket, 0), self.num_buckets - 1)
        low, high = bounds[bucket], bounds[bucket + 1]
        if high > low:
            within = (value - low) / (high - low)
        else:
            within = 1.0  # zero-width bucket of duplicated values
        return (bucket + within) / self.num_buckets

    def selectivity_range(self, low: float | None, high: float | None,
                          low_inclusive: bool = True,
                          high_inclusive: bool = True) -> float:
        """Estimated fraction of rows in [low, high] (either side optional)."""
        upper = self._selectivity_below(high, high_inclusive) if high is not None else 1.0
        lower = self._selectivity_below(low, not low_inclusive) if low is not None else 0.0
        return float(np.clip(upper - lower, 0.0, 1.0))

    def to_dict(self) -> dict:
        """JSON-serializable representation."""
        return {"bounds": self.bounds.tolist()}

    @classmethod
    def from_dict(cls, payload: dict) -> "EquiDepthHistogram":
        return cls(bounds=np.asarray(payload["bounds"], dtype=np.float64))
