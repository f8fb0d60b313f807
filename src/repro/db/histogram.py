"""Equi-depth histograms, the backbone of the Postgres-style estimator.

Postgres stores ``histogram_bounds`` per column: boundaries of buckets
holding (approximately) equal row counts.  Selectivity of a range
predicate is the fraction of buckets (with linear interpolation inside
the boundary buckets) the range covers.

The bounds are the Hyndman & Fan type-7 quantiles of the column (linear
interpolation between the two nearest order statistics, the default of
``numpy.quantile``), read from the column sorted once:
:meth:`EquiDepthHistogram.from_sorted` takes the sorted array that
``ANALYZE`` already holds.
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
    def from_sorted(cls, ordered: np.ndarray,
                    num_buckets: int = 32) -> "EquiDepthHistogram":
        """Construct from column values sorted ascending, NaNs last (as
        ``np.sort`` leaves them).

        Bound ``i`` is the type-7 quantile ``i / num_buckets``, read off
        the sorted array with the arithmetic of ``numpy.quantile``'s default
        method, so the bounds equal its output bit for bit.
        """
        if num_buckets <= 0:
            raise ValueError(f"num_buckets must be positive, got {num_buckets}")
        count = len(ordered)
        if count == 0:
            return cls(bounds=np.array([0.0, 0.0]))
        if ordered.dtype.kind == "f" and np.isnan(ordered[-1]):
            # A NaN makes every quantile NaN.
            return cls(bounds=np.full(num_buckets + 1, ordered[-1],
                                      dtype=np.float64))
        positions = (count - 1) * np.linspace(0.0, 1.0, num_buckets + 1)
        below = np.floor(positions)
        above = below + 1
        # A position on the last row reads it as index -1 and takes its
        # gamma against that index, as numpy does; the sign of a zero
        # bound of a single-row column depends on it.
        at_end = positions >= count - 1
        below[at_end] = -1
        above[at_end] = -1
        gamma = positions - below
        low = ordered[below.astype(np.intp)].astype(np.float64)
        high = ordered[above.astype(np.intp)].astype(np.float64)
        with np.errstate(invalid="ignore"):  # inf - inf, inf * 0
            step = high - low
            bounds = low + step * gamma
            # From gamma = 0.5 on, interpolate down from the upper
            # neighbour.
            np.subtract(high, step * (1 - gamma), out=bounds,
                        where=gamma >= 0.5)
        # Only an infinite neighbour makes a NaN here: two equal
        # infinities, a bound on a finite row beside one (gamma 0), or
        # an interpolation toward one from its far side.  The bound is
        # the neighbour it sits on or nearer to, which is the limit of
        # the interpolation wherever one exists.
        undefined = np.isnan(bounds)
        if undefined.any():
            bounds[undefined] = np.where(gamma < 0.5, low, high)[undefined]
        return cls(bounds=bounds)

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
