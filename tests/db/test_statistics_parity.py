"""ANALYZE's one sort per column against the derivation it replaced:
``np.unique`` for the distinct values and counts, ``np.quantile`` for
the histogram bounds, ``min`` / ``max`` for the extremes.  Every
:class:`ColumnStatistics` field is compared bit for bit (floats as their
IEEE bytes), and the generator's rank transform against the double
``argsort`` it replaced.

Where ``np.quantile`` reads a NaN bound out of an infinity (``inf - inf``
between two equal infinities, ``inf * 0`` on a row beside one), the
reference bound is the neighbour the position sits on or nearer to, as
:meth:`EquiDepthHistogram.from_sorted` reads it (:func:`reference_bounds`);
every other bound is numpy's, bit for bit.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.db import DataType, TableData
from repro.db.generator import _correlate
from repro.db.histogram import EquiDepthHistogram
from repro.db.schema import Column, Table
from repro.db.statistics import (
    NUM_BUCKETS,
    NUM_MCVS,
    ColumnStatistics,
    analyze_table,
)

pytestmark = pytest.mark.perf

INT64_MIN, INT64_MAX = -2 ** 63, 2 ** 63 - 1


# ----------------------------------------------------------------------
# The reference: analyze_table and _correlate as they were written
# before the one-sort derivation.
# ----------------------------------------------------------------------
def reference_bounds(values: np.ndarray, num_buckets: int) -> np.ndarray:
    """``np.quantile``'s type-7 bounds; where numpy computes a NaN from
    an infinity in a column without NaN, the row the bound's position
    rounds to (half up)."""
    values = values.astype(np.float64)
    quantiles = np.linspace(0.0, 1.0, num_buckets + 1)
    with np.errstate(invalid="ignore"):
        bounds = np.quantile(values, quantiles)
    if np.isnan(values).any():
        return bounds
    ordered = np.sort(values)
    for i, position in enumerate((len(values) - 1) * quantiles):
        if np.isnan(bounds[i]):
            below = math.floor(position)
            bounds[i] = ordered[below if position - below < 0.5 else below + 1]
    return bounds


def reference_column_statistics(data: TableData, name: str) -> ColumnStatistics:
    values = data.column_values(name)
    null_mask = data.null_mask(name)
    non_null = values[~null_mask]
    null_fraction = float(null_mask.mean()) if len(values) else 0.0
    if len(non_null) == 0:
        return ColumnStatistics(column_name=name, null_fraction=null_fraction,
                                num_distinct=0, min_value=None, max_value=None)
    unique, counts = np.unique(non_null, return_counts=True)
    top = np.argsort(counts)[::-1][:NUM_MCVS]
    total = counts.sum()
    bounds = reference_bounds(non_null, NUM_BUCKETS)
    return ColumnStatistics(
        column_name=name,
        null_fraction=null_fraction,
        num_distinct=len(unique),
        min_value=float(non_null.min()),
        max_value=float(non_null.max()),
        mcv_values=tuple(float(v) for v in unique[top]),
        mcv_fractions=tuple(float(c) / total * (1.0 - null_fraction)
                            for c in counts[top]),
        histogram=EquiDepthHistogram(np.asarray(bounds, dtype=np.float64)),
    )


def reference_correlate(rng, source, target_column, num_rows):
    ranks = np.argsort(np.argsort(source))
    normalized = ranks / max(num_rows - 1, 1)
    noise = rng.normal(0.0, 0.15, size=num_rows)
    mixed = np.clip(normalized + noise, 0.0, 1.0)
    if target_column.data_type is DataType.CATEGORICAL:
        domain = target_column.num_categories
        return np.minimum((mixed * domain).astype(np.int64), domain - 1)
    if target_column.data_type is DataType.FLOAT:
        return mixed * 1000.0
    return (mixed * 10_000).astype(np.int64)


# ----------------------------------------------------------------------
# Bitwise comparison
# ----------------------------------------------------------------------
def float_bits(value):
    if value is None:
        return None
    return struct.pack("<d", value)


def statistics_bits(stats: ColumnStatistics) -> dict:
    bounds = None if stats.histogram is None else stats.histogram.bounds
    return {
        "column_name": stats.column_name,
        "num_distinct": stats.num_distinct,
        "null_fraction": float_bits(stats.null_fraction),
        "min_value": float_bits(stats.min_value),
        "max_value": float_bits(stats.max_value),
        "mcv_values": [float_bits(v) for v in stats.mcv_values],
        "mcv_fractions": [float_bits(f) for f in stats.mcv_fractions],
        "histogram": None if bounds is None else bounds.tobytes(),
        "histogram_dtype": None if bounds is None else bounds.dtype,
    }


def stored(values: np.ndarray, null_mask: np.ndarray | None = None
           ) -> TableData:
    """``values`` as column ``v`` of a FLOAT or INTEGER table stores
    them."""
    data_type = DataType.FLOAT if values.dtype.kind == "f" else DataType.INTEGER
    table = Table("t", (Column("v", data_type),))
    return TableData(table=table, columns={"v": values},
                     null_masks={} if null_mask is None else {"v": null_mask})


def assert_column_parity(values: np.ndarray, null_mask: np.ndarray | None):
    data = stored(values, null_mask)
    actual = analyze_table(data).columns["v"]
    expected = reference_column_statistics(data, "v")
    assert statistics_bits(actual) == statistics_bits(expected)
    # Element types too: the MCV fractions stay numpy floats.
    assert [type(f) for f in actual.mcv_fractions] == \
        [type(f) for f in expected.mcv_fractions]


# ----------------------------------------------------------------------
# Column draws
# ----------------------------------------------------------------------
_WIDE_INTS = st.integers(INT64_MIN, INT64_MAX)
_EDGE_INTS = st.one_of(st.integers(INT64_MIN, INT64_MIN + 2_000),
                       st.integers(INT64_MAX - 2_000, INT64_MAX))
_NARROW_INTS = st.integers(-5, 5)
_SPECIAL_FLOATS = st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan])
_FINITE_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
_SMALL_FLOATS = st.integers(-4, 4).map(float)


@st.composite
def columns(draw, elements, dtype):
    """A column of 1-80 rows drawn from a pool of up to 8 values (many
    duplicates) or straight from ``elements``, with no, some or all rows
    NULL."""
    size = draw(st.integers(1, 80))
    if draw(st.booleans()):
        pool = draw(st.lists(elements, min_size=1, max_size=8))
        picks = draw(st.lists(st.integers(0, len(pool) - 1),
                              min_size=size, max_size=size))
        values = [pool[pick] for pick in picks]
    else:
        values = draw(st.lists(elements, min_size=size, max_size=size))
    nulls = draw(st.sampled_from(["none", "some", "all"]))
    if nulls == "none":
        null_mask = None
    elif nulls == "all":
        null_mask = np.ones(size, dtype=bool)
    else:
        null_mask = np.array(draw(st.lists(st.booleans(), min_size=size,
                                           max_size=size)))
    return np.array(values, dtype=dtype), null_mask


_INT_COLUMNS = st.one_of(columns(_NARROW_INTS, np.int64),
                         columns(_WIDE_INTS, np.int64),
                         columns(_EDGE_INTS, np.int64))
_FLOAT_COLUMNS = st.one_of(
    columns(st.one_of(_SPECIAL_FLOATS, _SMALL_FLOATS), np.float64),
    columns(st.one_of(_SPECIAL_FLOATS, _FINITE_FLOATS), np.float64),
    columns(_FINITE_FLOATS, np.float64),
)

#: Deterministic columns that each pin one detail: gamma == 0.5 (three
#: rows put bound 8 of 32 halfway between rows 0 and 1), NaNs counting
#: as one value, a zero's sign, the int64 extremes, a single row.
_PINNED_FLOATS = [
    [-np.inf, 1.0, 2.0],
    [-0.0, -0.0, -0.0],
    [-0.0, -0.0, 5.0, 5.0],
    [np.nan, 1.0, np.nan, np.nan],
    [np.nan],
    [np.inf],
    [-np.inf, np.inf],
    [0.1 * i for i in range(17)],
]
_PINNED_INTS = [
    [INT64_MIN, INT64_MAX, INT64_MAX - 1, INT64_MIN + 1],
    [INT64_MAX] * 3 + [INT64_MAX - 1] * 2,
    [7],
]


class TestAnalyzeParity:
    @settings(max_examples=300, deadline=None)
    @given(_INT_COLUMNS)
    def test_int_columns(self, column):
        assert_column_parity(*column)

    @settings(max_examples=400, deadline=None)
    @given(_FLOAT_COLUMNS)
    def test_float_columns(self, column):
        assert_column_parity(*column)

    @pytest.mark.parametrize("values", _PINNED_FLOATS)
    def test_pinned_float_columns(self, values):
        assert_column_parity(np.array(values, dtype=np.float64), None)

    @pytest.mark.parametrize("values", _PINNED_INTS)
    def test_pinned_int_columns(self, values):
        assert_column_parity(np.array(values, dtype=np.int64), None)

    def test_nans_count_as_one_value(self):
        stats = analyze_table(TableData(
            table=Table("t", (Column("v", DataType.FLOAT),)),
            columns={"v": np.array([np.nan, 1.0, np.nan, np.nan])},
        )).columns["v"]
        assert stats.num_distinct == 2
        assert np.isnan(stats.min_value) and np.isnan(stats.max_value)
        assert np.isnan(stats.histogram.bounds).all()

    @pytest.mark.parametrize("values", [
        [-0.0, 0.0], [0.0, -0.0], [-0.0, 0.0, 0.0, -0.0, 1.0],
        [1.0, 0.0, -0.0, -0.0, 0.0], [-1.0, -0.0, 0.0, 1.0],
    ])
    def test_both_zeros_store_as_one(self, values):
        """Storage keeps one zero, ``+0.0``: a column of both zeros, in
        any order, ANALYZEs to the extremes and bounds of its ``+0.0``
        copy, bit for bit.  The zeros compare equal, so a sort leaves
        them in row order, and a stored ``-0.0`` would make the sign of
        a zero extreme or bound follow that order."""
        def analyzed(column):
            stats = analyze_table(stored(np.array(column))).columns["v"]
            return (float_bits(stats.min_value), float_bits(stats.max_value),
                    stats.histogram.bounds.tobytes())

        assert analyzed(values) == analyzed([abs(v) if v == 0 else v
                                             for v in values])

    def test_gamma_one_half_reads_down_from_the_upper_neighbour(self):
        """Bound 8 of three rows sits halfway between rows 0 and 1:
        ``1 - (1 - -inf) * 0.5`` is ``-inf`` where ``-inf + inf * 0.5``
        would be NaN."""
        bounds = EquiDepthHistogram.from_sorted(
            np.array([-np.inf, 1.0, 2.0]), num_buckets=NUM_BUCKETS).bounds
        assert bounds[8] == -np.inf


class TestHistogramParity:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(_INT_COLUMNS, _FLOAT_COLUMNS),
           st.sampled_from([1, 2, 3, 4, 7, 32, 100]))
    @example((np.array([-np.inf, 1.0, 2.0]), None), 4)
    @example((np.array([-0.0, -0.0, -0.0]), None), 4)
    @example((np.array([np.nan, np.nan, 3.0]), None), 2)
    def test_bounds_equal_the_type_7_quantiles(self, column, num_buckets):
        """Over a column as stored: every histogram is built from one."""
        values = stored(column[0]).column_values("v")
        expected = reference_bounds(values, num_buckets)
        actual = EquiDepthHistogram.from_sorted(np.sort(values),
                                                num_buckets).bounds
        assert actual.dtype == np.float64
        assert actual.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("values, num_buckets, bounds", [
        ([1.0, 2.0, 3.0, 4.0, np.inf], 4, [1.0, 2.0, 3.0, 4.0, np.inf]),
        ([-np.inf, -np.inf, 1.0, 2.0, np.inf, np.inf], 4,
         [-np.inf, -np.inf, 1.5, np.inf, np.inf]),
        ([-np.inf, np.inf], 3, [-np.inf, -np.inf, np.inf, np.inf]),
        ([np.inf, np.inf], 2, [np.inf, np.inf, np.inf]),
    ], ids=["gamma-0-beside-inf", "both-infinities", "inf-to-inf", "all-inf"])
    def test_an_infinity_gives_no_nan_bound(self, values, num_buckets,
                                            bounds):
        """``np.quantile`` reads NaN (and warns) at each of the bounds
        these columns put on or beside an infinity."""
        actual = EquiDepthHistogram.from_sorted(np.sort(values), num_buckets)
        assert actual.bounds.tolist() == bounds

    def test_empty_and_invalid(self):
        empty = EquiDepthHistogram.from_sorted(np.array([]))
        assert empty.bounds.tolist() == [0.0, 0.0]
        with pytest.raises(ValueError):
            EquiDepthHistogram.from_sorted(np.arange(3), num_buckets=0)


class TestCorrelateRanks:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 6), min_size=1, max_size=200),
           st.sampled_from([Column("c", DataType.CATEGORICAL, num_categories=5),
                            Column("f", DataType.FLOAT),
                            Column("i", DataType.INTEGER)]),
           st.integers(0, 2 ** 32 - 1))
    def test_matches_the_double_argsort(self, source, target, seed):
        """Ties included: the inverse-permutation scatter of one argsort
        is the rank vector the second argsort computed."""
        source = np.array(source, dtype=np.int64)
        expected = reference_correlate(np.random.default_rng(seed), source,
                                       target, len(source))
        actual = _correlate(np.random.default_rng(seed), source, target,
                            len(source))
        assert actual.dtype == expected.dtype
        assert actual.tobytes() == expected.tobytes()
