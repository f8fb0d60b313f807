"""TableData, page accounting, histograms, ANALYZE statistics, indexes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import DataType, TableData
from repro.db.histogram import EquiDepthHistogram
from repro.db.index import Index
from repro.db.schema import Column, Table
from repro.db.statistics import analyze_table
from repro.db.types import pages_for_rows, rows_per_page
from repro.errors import CatalogError, SchemaError


def int_table(values, name="t"):
    table = Table(name, (Column("v", DataType.INTEGER),))
    return TableData(table=table, columns={"v": np.asarray(values, dtype=np.int64)})


class TestTableData:
    def test_schema_mismatch(self):
        table = Table("t", (Column("a", DataType.INTEGER),))
        with pytest.raises(SchemaError):
            TableData(table=table, columns={"b": np.arange(3)})

    def test_length_mismatch(self):
        table = Table("t", (Column("a", DataType.INTEGER),
                            Column("b", DataType.INTEGER)))
        with pytest.raises(SchemaError):
            TableData(table=table,
                      columns={"a": np.arange(3), "b": np.arange(4)})

    def test_dtype_coercion(self):
        table = Table("t", (Column("a", DataType.FLOAT),
                            Column("b", DataType.INTEGER)))
        data = TableData(table=table,
                         columns={"a": np.arange(3, dtype=np.int32),
                                  "b": np.arange(3, dtype=np.int16)})
        assert data.columns["a"].dtype == np.float64
        assert data.columns["b"].dtype == np.int64

    def test_null_mask_handling(self):
        table = Table("t", (Column("a", DataType.INTEGER),))
        mask = np.array([True, False, True])
        data = TableData(table=table, columns={"a": np.arange(3)},
                         null_masks={"a": mask})
        assert data.null_mask("a").sum() == 2

    def test_null_mask_validation(self):
        table = Table("t", (Column("a", DataType.INTEGER),))
        with pytest.raises(SchemaError):
            TableData(table=table, columns={"a": np.arange(3)},
                      null_masks={"a": np.array([True])})
        with pytest.raises(SchemaError):
            TableData(table=table, columns={"a": np.arange(3)},
                      null_masks={"ghost": np.array([True, False, False])})

    def test_pages(self):
        data = int_table(range(10_000))
        assert data.num_pages == pages_for_rows(10_000, 4)
        assert data.num_pages > 1


class TestPageMath:
    def test_rows_per_page_positive(self):
        assert rows_per_page(4) > 100

    def test_wide_tuple_one_per_page(self):
        assert rows_per_page(9_000) == 1

    def test_empty_table_one_page(self):
        assert pages_for_rows(0, 4) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            rows_per_page(0)
        with pytest.raises(ValueError):
            pages_for_rows(-1, 4)


class TestHistogram:
    def test_uniform_selectivity(self):
        values = np.arange(10_000)
        hist = EquiDepthHistogram.from_sorted(np.sort(values), num_buckets=50)
        sel = hist.selectivity_range(2_500, 7_500)
        assert sel == pytest.approx(0.5, abs=0.03)

    def test_below_min_and_above_max(self):
        hist = EquiDepthHistogram.from_sorted(np.arange(100), num_buckets=10)
        assert hist.selectivity_range(None, -5) == 0.0
        assert hist.selectivity_range(200, None) == 0.0
        assert hist.selectivity_range(None, None) == 1.0

    def test_skewed_data(self):
        rng = np.random.default_rng(0)
        values = rng.exponential(10.0, size=20_000)
        hist = EquiDepthHistogram.from_sorted(np.sort(values), num_buckets=64)
        true_sel = float((values <= 5.0).mean())
        est = hist.selectivity_range(None, 5.0)
        assert est == pytest.approx(true_sel, abs=0.05)

    def test_constant_column(self):
        hist = EquiDepthHistogram.from_sorted(np.full(100, 7.0))
        assert hist.selectivity_range(None, 6.0) == 0.0
        assert hist.selectivity_range(None, 8.0) == 1.0

    def test_empty_column(self):
        hist = EquiDepthHistogram.from_sorted(np.array([]))
        assert hist.num_buckets >= 1

    def test_invalid_buckets(self):
        with pytest.raises(ValueError):
            EquiDepthHistogram.from_sorted(np.arange(10), num_buckets=0)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=9999),
        cut=st.floats(min_value=0.05, max_value=0.95),
    )
    def test_monotone_property(self, seed, cut):
        """The selectivity of ``<= threshold`` is monotone in it."""
        rng = np.random.default_rng(seed)
        values = rng.normal(size=500)
        hist = EquiDepthHistogram.from_sorted(np.sort(values), num_buckets=16)
        lo = float(np.quantile(values, cut * 0.5))
        hi = float(np.quantile(values, cut))
        assert hist.selectivity_range(None, lo) <= \
            hist.selectivity_range(None, hi) + 1e-9


class TestAnalyze:
    def test_basic_stats(self):
        data = int_table(list(range(100)) * 10)  # 1000 rows, 100 distinct
        stats = analyze_table(data)
        column = stats.column("v")
        assert stats.num_rows == 1000
        assert column.num_distinct == 100
        assert column.min_value == 0
        assert column.max_value == 99
        assert column.null_fraction == 0.0

    def test_mcvs_capture_skew(self):
        values = np.concatenate([np.zeros(900), np.arange(1, 101)])
        stats = analyze_table(int_table(values))
        column = stats.column("v")
        assert column.mcv_values[0] == 0.0
        assert column.mcv_fractions[0] == pytest.approx(0.9)
        assert column.mcv_fraction_of(0.0) == pytest.approx(0.9)
        assert column.mcv_fraction_of(12345.0) is None

    def test_null_fraction(self):
        table = Table("t", (Column("v", DataType.INTEGER),))
        data = TableData(
            table=table, columns={"v": np.arange(100)},
            null_masks={"v": np.arange(100) < 25},
        )
        stats = analyze_table(data)
        assert stats.column("v").null_fraction == pytest.approx(0.25)

    def test_every_row_is_read(self):
        """No sample: the distinct count and the extremes are exact,
        NULLs excluded."""
        values = np.random.default_rng(0).integers(0, 5_000, size=20_000)
        table = Table("t", (Column("v", DataType.INTEGER),))
        nulls = values % 7 == 0
        column = analyze_table(TableData(
            table=table, columns={"v": values}, null_masks={"v": nulls}),
        ).column("v")
        assert column.num_distinct == len(np.unique(values[~nulls]))
        assert column.min_value == values[~nulls].min()
        assert column.max_value == values[~nulls].max()

    def test_missing_column_stats(self):
        stats = analyze_table(int_table([1]))
        with pytest.raises(CatalogError):
            stats.column("ghost")

    def test_all_null_column(self):
        table = Table("t", (Column("v", DataType.INTEGER),))
        data = TableData(table=table, columns={"v": np.arange(5)},
                         null_masks={"v": np.ones(5, dtype=bool)})
        stats = analyze_table(data)
        assert stats.column("v").num_distinct == 0
        assert stats.column("v").min_value is None


class TestIndex:
    def test_build_and_lookup(self):
        data = int_table([5, 3, 8, 1, 9, 3])
        index = Index("idx", "t", "v").build(data)
        rows = index.range_lookup(3, 8)
        assert sorted(rows.tolist()) == [0, 1, 2, 5]
        assert sorted(index.range_lookup(3, 3).tolist()) == [1, 5]

    def test_exclusive_bounds(self):
        data = int_table([1, 2, 3, 4, 5])
        index = Index("idx", "t", "v").build(data)
        rows = index.range_lookup(2, 4, low_inclusive=False, high_inclusive=False)
        assert rows.tolist() == [2]

    def test_open_ranges(self):
        data = int_table([1, 2, 3])
        index = Index("idx", "t", "v").build(data)
        assert len(index.range_lookup(None, None)) == 3
        assert len(index.range_lookup(2, None)) == 2

    def test_hypothetical_cannot_lookup(self):
        index = Index("idx", "t", "v", hypothetical=True)
        index.estimate_for_rows(1000)
        with pytest.raises(SchemaError):
            index.range_lookup(0, 1)
        with pytest.raises(SchemaError):
            index.lookup_many(np.array([0, 1]))

    def test_lookup_many_is_equality_lookup_per_key(self):
        data = int_table([5, 3, 8, 1, 9, 3, 5, 5])
        index = Index("idx", "t", "v").build(data)
        keys = np.array([3, 7, 5, 3, 9])
        key_positions, row_ids = index.lookup_many(keys)
        # By key position, then in index order; a key nobody holds (7)
        # contributes nothing.
        assert key_positions.tolist() == [0, 0, 2, 2, 2, 3, 3, 4]
        assert row_ids.tolist() == [1, 5, 0, 6, 7, 1, 5, 4]
        assert row_ids.tolist() == np.concatenate(
            [index.range_lookup(key, key) for key in keys]).tolist()
        for keys in (np.array([7, 2]), np.empty(0, dtype=np.int64)):
            key_positions, row_ids = index.lookup_many(keys)
            assert key_positions.tolist() == row_ids.tolist() == []
            assert key_positions.dtype == row_ids.dtype == np.int64

    def test_height_grows_with_rows(self):
        small = Index("a", "t", "v", hypothetical=True)
        small.estimate_for_rows(100)
        large = Index("b", "t", "v", hypothetical=True)
        large.estimate_for_rows(100_000_000)
        assert large.height > small.height
        assert small.height >= 1

    def test_wrong_table_rejected(self):
        data = int_table([1], name="other")
        with pytest.raises(SchemaError):
            Index("idx", "t", "v").build(data)

    def test_leaf_pages_scale(self):
        index = Index("idx", "t", "v", hypothetical=True)
        index.estimate_for_rows(0)
        assert index.num_leaf_pages == 1
        index.estimate_for_rows(10_000_000)
        assert index.num_leaf_pages > 1000
