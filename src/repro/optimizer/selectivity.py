"""Predicate selectivity estimation from ANALYZE statistics.

Follows Postgres' approach: most-common-value matching for equality,
equi-depth histogram interpolation for ranges, uniformity across the
non-MCV remainder, independence across conjunctions.  These assumptions
are exactly what makes estimates drift on correlated data — a property
the paper's "Zero-Shot (Estimated Cardinalities)" configuration relies
on being realistic.
"""

from __future__ import annotations

from repro.db.statistics import ColumnStatistics
from repro.sql.ast import ComparisonOperator, Interval, Predicate

__all__ = ["estimate_predicate_selectivity", "DEFAULT_EQ_SELECTIVITY",
           "DEFAULT_RANGE_SELECTIVITY"]

#: Fallbacks when statistics are unavailable (Postgres uses the same).
DEFAULT_EQ_SELECTIVITY = 0.005
DEFAULT_RANGE_SELECTIVITY = 1.0 / 3.0

_MIN_SELECTIVITY = 1e-7


def _clamp(selectivity: float) -> float:
    return float(min(max(selectivity, _MIN_SELECTIVITY), 1.0))


def _equality_selectivity(stats: ColumnStatistics, value: float) -> float:
    mcv = stats.mcv_fraction_of(float(value))
    if mcv is not None:
        return mcv
    remainder = 1.0 - stats.null_fraction - stats.mcv_total_fraction
    remaining_distinct = max(stats.num_distinct - len(stats.mcv_values), 1)
    if stats.min_value is not None and not (
            stats.min_value <= float(value) <= stats.max_value):
        return _MIN_SELECTIVITY  # outside the observed domain
    return max(remainder, 0.0) / remaining_distinct


def _range_selectivity(stats: ColumnStatistics, interval: Interval) -> float:
    if stats.histogram is None:
        return DEFAULT_RANGE_SELECTIVITY
    fraction = stats.histogram.selectivity_range(
        interval.low, interval.high,
        low_inclusive=interval.low_inclusive,
        high_inclusive=interval.high_inclusive,
    )
    return fraction * (1.0 - stats.null_fraction)


def estimate_predicate_selectivity(stats: ColumnStatistics | None,
                                   predicate: Predicate) -> float:
    """Estimated fraction of rows satisfying ``predicate``.

    ``stats`` may be None (no ANALYZE data), in which case Postgres-style
    defaults apply.
    """
    operator = predicate.operator
    if stats is None:
        if operator.is_range:
            return DEFAULT_RANGE_SELECTIVITY
        return DEFAULT_EQ_SELECTIVITY

    if operator is ComparisonOperator.EQ:
        return _clamp(_equality_selectivity(stats, predicate.value))

    if operator is ComparisonOperator.NEQ:
        equal = _equality_selectivity(stats, predicate.value)
        return _clamp(1.0 - stats.null_fraction - equal)

    if operator is ComparisonOperator.IN:
        total = sum(_equality_selectivity(stats, value)
                    for value in predicate.value)
        return _clamp(total)

    return _clamp(_range_selectivity(stats, predicate.interval()))
