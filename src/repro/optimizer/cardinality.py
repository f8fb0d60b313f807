"""Cardinality estimation for scans and join trees.

The estimator combines per-table filtered cardinalities (selectivity
under independence) with per-join-edge selectivities derived from
distinct counts (``1 / max(ndv_left, ndv_right)``, Postgres' eqjoinsel).
Join-tree cardinalities are computed consistently for any subset of
tables, which the DP enumerator requires.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.db.database import Database
from repro.errors import CatalogError, OptimizerError
from repro.sql.ast import JoinCondition, Predicate, Query

__all__ = ["CardinalityEstimator"]


@dataclass
class CardinalityEstimator:
    """Estimates cardinalities of query fragments on one database."""

    database: Database

    # ------------------------------------------------------------------
    # Base tables
    # ------------------------------------------------------------------
    def table_rows(self, alias: str, query: Query) -> float:
        table_name = query.table_ref(alias).table_name
        return float(self.database.table_statistics(table_name).num_rows)

    def predicate_selectivity(self, query: Query, predicate: Predicate) -> float:
        from repro.optimizer.selectivity import estimate_predicate_selectivity

        table_name = query.table_ref(predicate.column.table).table_name
        stats = self.database.table_statistics(table_name)
        try:
            column_stats = stats.column(predicate.column.column)
        except CatalogError:  # missing column statistics -> defaults
            column_stats = None
        return estimate_predicate_selectivity(column_stats, predicate)

    def scan_selectivity(self, query: Query, alias: str) -> float:
        """Combined selectivity of all filters on ``alias`` (independence)."""
        selectivity = 1.0
        for predicate in query.predicates_on(alias):
            selectivity *= self.predicate_selectivity(query, predicate)
        return selectivity

    def scan_rows(self, query: Query, alias: str) -> float:
        return max(self.table_rows(alias, query) *
                   self.scan_selectivity(query, alias), 1.0)

    # ------------------------------------------------------------------
    # Joins
    # ------------------------------------------------------------------
    def join_selectivity(self, query: Query, join: JoinCondition) -> float:
        """Postgres eqjoinsel: ``1 / max(ndv_left, ndv_right)``."""
        ndvs = []
        for side in (join.left, join.right):
            table_name = query.table_ref(side.table).table_name
            stats = self.database.table_statistics(table_name)
            column = stats.column(side.column)
            ndvs.append(max(column.num_distinct, 1))
        return 1.0 / max(ndvs)

    def joined_rows(self, query: Query, aliases: frozenset[str]) -> float:
        """Estimated cardinality of the join over ``aliases``.

        Product of filtered base cardinalities times the selectivity of
        the join edges internal to the set, restricted to a spanning
        forest of the column equivalence classes.  On acyclic join
        graphs every internal edge is in the forest, so this is the
        classical System-R product, bit-for-bit.  On rewritten queries
        the transitive-join rule adds redundant edges (``a=c`` next to
        ``a=b AND b=c``); counting them again would square selectivities
        and underestimate, so edges whose endpoint columns are already
        connected are skipped.  Edges are visited in ``query.joins``
        order (originals precede derived ones), keeping the estimate
        consistent across all join orders.
        """
        missing = aliases - set(query.table_names)
        if missing:
            raise OptimizerError(f"unknown aliases in join set: {sorted(missing)}")
        rows = 1.0
        # Sorted: float multiplication is rounding-order sensitive, and
        # set iteration order varies with the process hash seed — the
        # product must be bit-identical across processes (shard-cached
        # corpora, golden encodings).
        for alias in sorted(aliases):
            rows *= self.scan_rows(query, alias)
        parent: dict = {}

        def find(column):
            parent.setdefault(column, column)
            while parent[column] != column:
                parent[column] = parent[parent[column]]
                column = parent[column]
            return column

        for join in query.joins:
            if join.left.table in aliases and join.right.table in aliases:
                left_root, right_root = find(join.left), find(join.right)
                if left_root == right_root:
                    continue  # redundant within an equivalence class
                parent[left_root] = right_root
                rows *= self.join_selectivity(query, join)
        return max(rows, 1.0)

    # ------------------------------------------------------------------
    # Aggregation output
    # ------------------------------------------------------------------
    def group_count(self, query: Query, input_rows: float) -> float:
        """Estimated number of groups for the query's GROUP BY."""
        if not query.group_by:
            return 1.0
        distinct = 1.0
        for column in query.group_by:
            table_name = query.table_ref(column.table).table_name
            stats = self.database.table_statistics(table_name)
            distinct *= max(stats.column(column.column).num_distinct, 1)
        return max(min(distinct, input_rows), 1.0)
