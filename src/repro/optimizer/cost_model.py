"""Postgres-style analytic cost model.

Costs are abstract units anchored at ``seq_page_cost = 1.0``, exactly
like Postgres.  The Scaled-Optimizer-Cost baseline of the paper fits a
linear map from these units to runtimes; its inaccuracy comes from the
model's simplifications (no caching effects, coarse CPU accounting),
which this implementation keeps faithfully.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.db.database import Database
from repro.db.index import Index
from repro.errors import OptimizerError

__all__ = ["CostModel"]

#: The classic Postgres cost GUCs, at Postgres' defaults.
SEQ_PAGE_COST = 1.0
RANDOM_PAGE_COST = 4.0
CPU_TUPLE_COST = 0.01
CPU_INDEX_TUPLE_COST = 0.005
CPU_OPERATOR_COST = 0.0025
#: work_mem expressed in tuples that fit before a hash table spills.
WORK_MEM_TUPLES = 200_000.0


@dataclass
class CostModel:
    """Computes operator costs given estimated input sizes."""

    database: Database

    # ------------------------------------------------------------------
    # Scans
    # ------------------------------------------------------------------
    def seq_scan_cost(self, table_name: str, output_rows: float,
                      num_predicates: int) -> float:
        stats = self.database.table_statistics(table_name)
        cpu_per_row = CPU_TUPLE_COST + num_predicates * CPU_OPERATOR_COST
        return stats.num_pages * SEQ_PAGE_COST + stats.num_rows * cpu_per_row

    def index_scan_cost(self, index: Index, matched_rows: float,
                        table_name: str, num_residual_predicates: int) -> float:
        """Cost of fetching ``matched_rows`` tuples through a B-tree."""
        stats = self.database.table_statistics(table_name)
        descend = index.height * RANDOM_PAGE_COST
        leaf_fraction = matched_rows / max(index.num_rows, 1)
        leaf_pages = max(1.0, leaf_fraction * index.num_leaf_pages)
        index_cpu = matched_rows * CPU_INDEX_TUPLE_COST
        # Heap fetches: uncorrelated index order means up to one random
        # page per tuple, capped by the table size re-read sequentially.
        heap_pages = min(matched_rows, float(stats.num_pages) * 2.0)
        heap_io = heap_pages * RANDOM_PAGE_COST
        residual_cpu = matched_rows * num_residual_predicates * CPU_OPERATOR_COST
        tuple_cpu = matched_rows * CPU_TUPLE_COST
        return (descend + leaf_pages * SEQ_PAGE_COST + index_cpu +
                heap_io + residual_cpu + tuple_cpu)

    # ------------------------------------------------------------------
    # Joins (incremental cost on top of the children's costs)
    # ------------------------------------------------------------------
    def hash_join_cost(self, build_rows: float, probe_rows: float,
                       output_rows: float) -> float:
        build = build_rows * (CPU_TUPLE_COST + 2.0 * CPU_OPERATOR_COST)
        probe = probe_rows * 2.0 * CPU_OPERATOR_COST
        emit = output_rows * CPU_TUPLE_COST
        spill = 0.0
        if build_rows > WORK_MEM_TUPLES:
            # Grace hash join: write + re-read both inputs once.
            spilled_tuples = build_rows + probe_rows
            spill = spilled_tuples * CPU_TUPLE_COST * 2.0
        return build + probe + emit + spill

    def nested_loop_cost(self, outer_rows: float, inner_rows: float,
                         inner_cost: float, output_rows: float) -> float:
        """Plain nested loop: the inner subplan is rescanned per outer row."""
        rescans = max(outer_rows - 1.0, 0.0)
        # Rescans hit the materialized inner side: charge CPU, not IO.
        rescan_cost = rescans * inner_rows * CPU_OPERATOR_COST
        emit = output_rows * CPU_TUPLE_COST
        return inner_cost + rescan_cost + emit

    def index_nested_loop_cost(self, outer_rows: float, index: Index,
                               matched_rows: float, table_name: str) -> float:
        """Index NL join: one parameterized index lookup per outer row."""
        stats = self.database.table_statistics(table_name)
        descend = outer_rows * index.height * RANDOM_PAGE_COST
        heap_pages = min(matched_rows, float(stats.num_pages) * 2.0)
        fetch = (matched_rows * CPU_INDEX_TUPLE_COST +
                 heap_pages * RANDOM_PAGE_COST)
        emit = matched_rows * CPU_TUPLE_COST
        return descend + fetch + emit

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def aggregate_cost(self, input_rows: float, num_aggregates: int,
                       output_groups: float) -> float:
        per_row = (1 + num_aggregates) * CPU_OPERATOR_COST
        return input_rows * per_row + output_groups * CPU_TUPLE_COST

    def hash_build_cost(self, input_rows: float) -> float:
        return input_rows * CPU_OPERATOR_COST

    # ------------------------------------------------------------------
    def validate(self) -> None:
        if not self.database.is_analyzed:
            raise OptimizerError(
                f"database {self.database.name!r} has no statistics; "
                "run analyze() before planning"
            )
