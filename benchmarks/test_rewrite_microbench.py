"""Acceptance gate for the logical rewrite phase.

A filter-heavy star schema where the rewrite phase must pay for itself:
two large child tables (``lineitem``, ``partsupp``) carry selective
predicates and both reference a huge hub table (``part``).  Without the
transitive join edge ``lineitem.part_id = partsupp.part_id`` the DP
enumerator can only reach the second child *through* the hub, so every
plan materializes a hub-sized intermediate; with the derived edge the
two filtered children join first and the hub is probed by the small
result.  The gate: summed intermediate rows (actual rows of every
non-leaf operator) drop by ≥1.5× with no end-to-end plan-cost
regression.
"""

import numpy as np
import pytest

from repro.db import Database, DataType, Schema, TableData
from repro.db.schema import Column, ForeignKey, Table
from repro.engine import execute_plan
from repro.optimizer import Planner, PlannerOptions
from repro.sql.ast import (
    AggregateFunction,
    AggregateSpec,
    ColumnRef,
    ComparisonOperator,
    JoinCondition,
    Predicate,
    Query,
    TableRef,
)

pytestmark = pytest.mark.rewrite

NUM_ROWS = 60_000
SELECTIVITY = 0.1


def intermediate_rows(plan) -> float:
    """Sum of actual rows over non-leaf operators (requires execution)."""
    plan.require_executed()
    return float(sum(node.actual_rows for node in plan.nodes()
                     if node.children))


@pytest.fixture(scope="module")
def filter_heavy_db():
    """part (hub, no predicate) <- lineitem, partsupp (filtered)."""
    rng = np.random.default_rng(41)
    part = Table("part", (
        Column("id", DataType.INTEGER),
        Column("size", DataType.INTEGER),
    ), primary_key="id")
    lineitem = Table("lineitem", (
        Column("id", DataType.INTEGER),
        Column("part_id", DataType.INTEGER),
        Column("quantity", DataType.INTEGER),
    ), primary_key="id")
    partsupp = Table("partsupp", (
        Column("id", DataType.INTEGER),
        Column("part_id", DataType.INTEGER),
        Column("avail", DataType.INTEGER),
    ), primary_key="id")
    schema = Schema.from_tables("filter_heavy", [part, lineitem, partsupp], [
        ForeignKey("lineitem", "part_id", "part", "id"),
        ForeignKey("partsupp", "part_id", "part", "id"),
    ])
    data = {
        "part": TableData(part, {
            "id": np.arange(NUM_ROWS, dtype=np.int64),
            "size": rng.integers(1, 50, NUM_ROWS),
        }),
        "lineitem": TableData(lineitem, {
            "id": np.arange(NUM_ROWS, dtype=np.int64),
            "part_id": rng.integers(0, NUM_ROWS, NUM_ROWS),
            "quantity": rng.integers(0, 100, NUM_ROWS),
        }),
        "partsupp": TableData(partsupp, {
            "id": np.arange(NUM_ROWS, dtype=np.int64),
            "part_id": rng.integers(0, NUM_ROWS, NUM_ROWS),
            "avail": rng.integers(0, 100, NUM_ROWS),
        }),
    }
    database = Database.from_tables("filter_heavy", schema, data)
    database.analyze()
    return database


def _filter_heavy_query():
    l, ps = ColumnRef("l", "part_id"), ColumnRef("ps", "part_id")
    threshold = int(100 * SELECTIVITY)
    return Query(
        tables=(TableRef("part", "p"), TableRef("lineitem", "l"),
                TableRef("partsupp", "ps")),
        joins=(JoinCondition(l, ColumnRef("p", "id")),
               JoinCondition(ps, ColumnRef("p", "id"))),
        predicates=(
            Predicate(ColumnRef("l", "quantity"),
                      ComparisonOperator.LT, threshold),
            Predicate(ColumnRef("ps", "avail"),
                      ComparisonOperator.LT, threshold),
        ),
        aggregates=(AggregateSpec(AggregateFunction.COUNT),),
    )


def test_rewrite_cuts_intermediate_rows(filter_heavy_db):
    """Acceptance gate: ≥1.5× fewer summed intermediate rows, and the
    rewritten plan's estimated cost does not regress."""
    query = _filter_heavy_query()
    baseline_plan = Planner(filter_heavy_db, PlannerOptions()).plan(query)
    rewritten_plan = Planner(
        filter_heavy_db, PlannerOptions(enable_rewrites=True)).plan(query)

    trace = rewritten_plan.metadata["rewrite_trace"]
    assert "transitive-joins" in trace.firings

    baseline = execute_plan(filter_heavy_db, baseline_plan)
    rewritten = execute_plan(filter_heavy_db, rewritten_plan)
    np.testing.assert_array_equal(
        baseline.relation.columns["agg0"], rewritten.relation.columns["agg0"])

    baseline_rows = intermediate_rows(baseline_plan)
    rewritten_rows = intermediate_rows(rewritten_plan)
    reduction = baseline_rows / max(rewritten_rows, 1)
    assert reduction >= 1.5, (
        f"rewrite phase only cut summed intermediate rows by "
        f"{reduction:.2f}x ({baseline_rows} -> {rewritten_rows})"
    )
    assert rewritten_plan.total_cost <= baseline_plan.total_cost * 1.01, (
        f"rewritten plan cost regressed: {rewritten_plan.total_cost:.1f} vs "
        f"baseline {baseline_plan.total_cost:.1f}"
    )


def test_rewrite_planning_latency(filter_heavy_db):
    """Rewrite + plan on the filter-heavy query records its firings
    (its latency is ``optimizer.rewrite_ms`` of ``python3 -m bench``)."""
    planner = Planner(filter_heavy_db, PlannerOptions(enable_rewrites=True))
    plan = planner.plan(_filter_heavy_query())
    assert plan.metadata["rewrite_trace"].firings
