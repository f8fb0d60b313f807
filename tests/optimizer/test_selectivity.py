"""Selectivity estimation against ground truth on known data."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import DataType, TableData
from repro.db.schema import Column, Table
from repro.db.statistics import analyze_table
from repro.optimizer.cardinality import CardinalityEstimator
from repro.optimizer.selectivity import (
    DEFAULT_EQ_SELECTIVITY,
    DEFAULT_RANGE_SELECTIVITY,
    estimate_predicate_selectivity,
)
from repro.sql import parse_query
from repro.sql.ast import ColumnRef, ComparisonOperator, Predicate


def stats_for(values, null_mask=None):
    table = Table("t", (Column("v", DataType.INTEGER),))
    data = TableData(table=table,
                     columns={"v": np.asarray(values, dtype=np.int64)},
                     null_masks={"v": null_mask} if null_mask is not None else {})
    return analyze_table(data).column("v")


def pred(op, value):
    return Predicate(ColumnRef("t", "v"), op, value)


class TestEquality:
    def test_uniform_equality(self):
        stats = stats_for(list(range(100)) * 10)
        sel = estimate_predicate_selectivity(stats, pred(ComparisonOperator.EQ, 42.0))
        assert sel == pytest.approx(0.01, rel=0.3)

    def test_mcv_equality_exact(self):
        values = np.concatenate([np.zeros(500), np.arange(1, 501)])
        stats = stats_for(values)
        sel = estimate_predicate_selectivity(stats, pred(ComparisonOperator.EQ, 0.0))
        assert sel == pytest.approx(0.5, rel=0.02)

    def test_out_of_domain_equality(self):
        stats = stats_for(range(100))
        sel = estimate_predicate_selectivity(stats,
                                             pred(ComparisonOperator.EQ, 5000.0))
        assert sel < 1e-4

    def test_neq_complements(self):
        values = np.concatenate([np.zeros(500), np.arange(1, 501)])
        stats = stats_for(values)
        eq = estimate_predicate_selectivity(stats, pred(ComparisonOperator.EQ, 0.0))
        neq = estimate_predicate_selectivity(stats, pred(ComparisonOperator.NEQ, 0.0))
        assert eq + neq == pytest.approx(1.0, abs=0.05)

    def test_in_sums(self):
        stats = stats_for(list(range(10)) * 100)
        sel = estimate_predicate_selectivity(
            stats, pred(ComparisonOperator.IN, (0.0, 1.0, 2.0)))
        assert sel == pytest.approx(0.3, rel=0.1)


class TestRanges:
    def test_uniform_range(self):
        stats = stats_for(range(1000))
        sel = estimate_predicate_selectivity(
            stats, pred(ComparisonOperator.BETWEEN, (250.0, 750.0)))
        assert sel == pytest.approx(0.5, abs=0.05)

    def test_lt_gt_partition(self):
        stats = stats_for(range(1000))
        lt = estimate_predicate_selectivity(stats, pred(ComparisonOperator.LT, 300.0))
        geq = estimate_predicate_selectivity(stats, pred(ComparisonOperator.GEQ, 300.0))
        assert lt + geq == pytest.approx(1.0, abs=0.05)

    def test_null_fraction_discounts_range(self):
        nulls = np.zeros(1000, dtype=bool)
        nulls[:500] = True
        stats = stats_for(range(1000), null_mask=nulls)
        sel = estimate_predicate_selectivity(stats, pred(ComparisonOperator.GT, -1.0))
        assert sel == pytest.approx(0.5, abs=0.05)

    def test_skewed_range(self):
        rng = np.random.default_rng(0)
        values = (rng.exponential(100, size=10_000)).astype(np.int64)
        stats = stats_for(values)
        true = float((values <= 50).mean())
        est = estimate_predicate_selectivity(stats, pred(ComparisonOperator.LEQ, 50.0))
        assert est == pytest.approx(true, abs=0.05)


class TestDefaults:
    def test_no_stats_defaults(self):
        assert estimate_predicate_selectivity(
            None, pred(ComparisonOperator.EQ, 1.0)) == DEFAULT_EQ_SELECTIVITY
        assert estimate_predicate_selectivity(
            None, pred(ComparisonOperator.GT, 1.0)) == DEFAULT_RANGE_SELECTIVITY

    def test_selectivity_bounds(self):
        stats = stats_for(range(10))
        for op, value in [(ComparisonOperator.EQ, 3.0),
                          (ComparisonOperator.LT, 100.0),
                          (ComparisonOperator.GT, -100.0),
                          (ComparisonOperator.IN, tuple(float(i) for i in range(10)))]:
            sel = estimate_predicate_selectivity(stats, pred(op, value))
            assert 0.0 < sel <= 1.0

    def test_only_missing_statistics_fall_back_to_defaults(
            self, two_table_db, monkeypatch):
        """The estimator treats a ``CatalogError`` (column never
        analyzed) as "no statistics"; any other failure is a bug and
        must surface instead of being priced with a default."""
        query = parse_query("SELECT COUNT(*) FROM parent p WHERE p.value = 3")
        estimator = CardinalityEstimator(two_table_db)
        statistics = two_table_db.table_statistics("parent")
        del statistics.columns["value"]
        assert estimator.predicate_selectivity(
            query, query.predicates[0]) == DEFAULT_EQ_SELECTIVITY

        def broken(self, name):
            raise RuntimeError("statistics backend exploded")

        monkeypatch.setattr(type(statistics), "column", broken)
        with pytest.raises(RuntimeError, match="exploded"):
            estimator.predicate_selectivity(query, query.predicates[0])


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=9999),
    low_q=st.floats(min_value=0.0, max_value=0.45),
    width_q=st.floats(min_value=0.05, max_value=0.5),
)
def test_between_close_to_truth_on_uniform(seed, low_q, width_q):
    """Property: on uniform data the histogram estimate tracks the truth."""
    rng = np.random.default_rng(seed)
    values = rng.integers(0, 10_000, size=5_000)
    stats = stats_for(values)
    low = float(np.quantile(values, low_q))
    high = float(np.quantile(values, min(low_q + width_q, 1.0)))
    true = float(((values >= low) & (values <= high)).mean())
    est = estimate_predicate_selectivity(
        stats, pred(ComparisonOperator.BETWEEN, (low, high)))
    assert abs(est - true) < 0.1
