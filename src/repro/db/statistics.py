"""Postgres-style table statistics (``ANALYZE``).

For every column we record the null fraction, number of distinct values,
min/max, the most common values with their frequencies, and an
equi-depth histogram (numeric columns).  Unlike Postgres' ``ANALYZE``
they read every row, not a page sample, so the distinct count is exact
and what is lost is lost in the summaries (:data:`NUM_MCVS` MCVs,
:data:`NUM_BUCKETS` buckets).  The optimizer's selectivity
estimation consumes exactly these — so its estimates deviate from the
truth in the same ways Postgres' do (independence and uniformity
assumptions), which matters for the "Zero-Shot (Estimated Cardinalities)"
rows of the paper's evaluation.

These statistics feed the learned stack twice: as the classical
estimates in the transferable plan encoding (column features, the
``plan_op`` cardinality feature), and as the *residual baseline* of the
zero-shot cardinality head — the head predicts the correction over the
histogram estimate, so exactly the independence-assumption drift
described above is what it learns to undo (see
:mod:`repro.models.cardinality` and
:mod:`repro.optimizer.learned_cardinality`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.db.histogram import EquiDepthHistogram
from repro.db.table_data import TableData
from repro.errors import CatalogError

__all__ = ["ColumnStatistics", "TableStatistics", "analyze_table"]

#: Number of most-common values tracked per column (Postgres default 100;
#: we keep fewer because our categorical domains are small).
NUM_MCVS = 20

#: Histogram buckets per numeric column.
NUM_BUCKETS = 32


@dataclass(frozen=True)
class ColumnStatistics:
    """Statistics of one column."""

    column_name: str
    null_fraction: float
    num_distinct: int
    min_value: float | None
    max_value: float | None
    mcv_values: tuple[float, ...] = ()
    mcv_fractions: tuple[float, ...] = ()
    histogram: EquiDepthHistogram | None = None

    def __post_init__(self):
        if not 0.0 <= self.null_fraction <= 1.0:
            raise CatalogError(
                f"null_fraction out of range for {self.column_name!r}: {self.null_fraction}"
            )
        if self.num_distinct < 0:
            raise CatalogError(
                f"negative num_distinct for {self.column_name!r}: {self.num_distinct}"
            )
        if len(self.mcv_values) != len(self.mcv_fractions):
            raise CatalogError(f"MCV lists of {self.column_name!r} have differing lengths")

    @property
    def mcv_total_fraction(self) -> float:
        return float(sum(self.mcv_fractions))

    def mcv_fraction_of(self, value: float) -> float | None:
        """Frequency of ``value`` if it is a tracked MCV, else None."""
        for mcv, fraction in zip(self.mcv_values, self.mcv_fractions):
            if mcv == value:
                return fraction
        return None


@dataclass
class TableStatistics:
    """Statistics of a whole table."""

    table_name: str
    num_rows: int
    num_pages: int
    columns: dict[str, ColumnStatistics] = field(default_factory=dict)

    def column(self, name: str) -> ColumnStatistics:
        try:
            return self.columns[name]
        except KeyError:
            raise CatalogError(
                f"no statistics for column {name!r} of table {self.table_name!r}; "
                "run analyze_table first"
            ) from None


def analyze_table(data: TableData) -> TableStatistics:
    """Compute :class:`TableStatistics` from stored data."""
    stats = TableStatistics(
        table_name=data.table.name,
        num_rows=data.num_rows,
        num_pages=data.num_pages,
    )
    for column in data.table.columns:
        values = data.column_values(column.name)
        null_mask = data.null_mask(column.name)
        non_null = values[~null_mask]
        null_fraction = float(null_mask.mean()) if len(values) else 0.0

        if len(non_null) == 0:
            stats.columns[column.name] = ColumnStatistics(
                column_name=column.name, null_fraction=null_fraction,
                num_distinct=0, min_value=None, max_value=None,
            )
            continue

        unique, counts = np.unique(non_null, return_counts=True)
        order = np.argsort(counts)[::-1]
        top = order[:NUM_MCVS]
        total = counts.sum()
        mcv_values = tuple(float(v) for v in unique[top])
        mcv_fractions = tuple(float(c) / total * (1.0 - null_fraction)
                              for c in counts[top])

        # Categorical codes are ordered integers, so a histogram is still
        # meaningful for them (used only as an equality fallback).
        histogram = EquiDepthHistogram.build(non_null, num_buckets=NUM_BUCKETS)

        stats.columns[column.name] = ColumnStatistics(
            column_name=column.name,
            null_fraction=null_fraction,
            num_distinct=len(unique),
            min_value=float(non_null.min()),
            max_value=float(non_null.max()),
            mcv_values=mcv_values,
            mcv_fractions=mcv_fractions,
            histogram=histogram,
        )
    return stats
