"""Cardinality estimation for scans and join trees.

The estimator combines per-table filtered cardinalities (selectivity
under independence) with per-join-edge selectivities derived from
distinct counts (``1 / max(ndv_left, ndv_right)``, Postgres' eqjoinsel).
Join-tree cardinalities are computed consistently for any subset of
tables, which the DP enumerator requires.

The formulas live in :class:`BoundCardinalities`, one query bound to one
database: a plan search asks about the same aliases, predicates and
join edges hundreds of times, so the binding computes each of them
once.  :class:`CardinalityEstimator` is the injectable factory for
bindings; its ``(query, ...)`` methods answer a single question through
a throwaway binding.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.db.database import Database
from repro.errors import CatalogError, OptimizerError
from repro.optimizer import selectivity
from repro.sql.ast import JoinCondition, Predicate, Query, TableRef

__all__ = ["BoundCardinalities", "CardinalityEstimator"]


class BoundCardinalities:
    """Cardinalities of one query's fragments on one database.

    Every per-alias, per-predicate and per-join-edge fact is computed on
    first request and kept for the lifetime of the binding, which is one
    ``Planner.plan()`` call: statistics can be re-analysed and indexes
    created between calls, so a binding is never reused across them.
    """

    def __init__(self, database: Database, query: Query):
        self.database = database
        self.query = query
        self._tables = {table.name: table for table in query.tables}
        self._predicates: dict[str, tuple[Predicate, ...]] | None = None
        self._predicate_selectivity: dict[Predicate, float] = {}
        self._scan_selectivity: dict[str, float] = {}
        self._scan_rows: dict[str, float] = {}
        self._join_selectivity: dict[JoinCondition, float] = {}

    # ------------------------------------------------------------------
    # The query, by alias
    # ------------------------------------------------------------------
    def table_ref(self, alias: str) -> TableRef:
        table = self._tables.get(alias)
        # Unknown alias: the query raises its QueryError.
        return table if table is not None else self.query.table_ref(alias)

    def scanned_table(self, alias: str) -> TableRef:
        """The reference a scan of ``alias`` carries: the alias is kept
        only where it differs from the table's name."""
        table_name = self.table_ref(alias).table_name
        return TableRef(table_name, alias if alias != table_name else None)

    def predicates_on(self, alias: str) -> tuple[Predicate, ...]:
        """``query.predicates_on(alias)``, grouped once for all aliases."""
        if self._predicates is None:
            grouped: dict[str, list[Predicate]] = {}
            for predicate in self.query.predicates:
                grouped.setdefault(predicate.column.table,
                                   []).append(predicate)
            self._predicates = {name: tuple(found)
                                for name, found in grouped.items()}
        return self._predicates.get(alias, ())

    # ------------------------------------------------------------------
    # Base tables
    # ------------------------------------------------------------------
    def _statistics(self, alias: str):
        return self.database.table_statistics(self.table_ref(alias).table_name)

    def table_rows(self, alias: str) -> float:
        return float(self._statistics(alias).num_rows)

    def predicate_selectivity(self, predicate: Predicate) -> float:
        cached = self._predicate_selectivity.get(predicate)
        if cached is None:
            stats = self._statistics(predicate.column.table)
            try:
                column_stats = stats.column(predicate.column.column)
            except CatalogError:  # missing column statistics -> defaults
                column_stats = None
            cached = selectivity.estimate_predicate_selectivity(
                column_stats, predicate)
            self._predicate_selectivity[predicate] = cached
        return cached

    def scan_selectivity(self, alias: str) -> float:
        """Combined selectivity of all filters on ``alias`` (independence)."""
        cached = self._scan_selectivity.get(alias)
        if cached is None:
            cached = 1.0
            for predicate in self.predicates_on(alias):
                cached *= self.predicate_selectivity(predicate)
            self._scan_selectivity[alias] = cached
        return cached

    def scan_rows(self, alias: str) -> float:
        cached = self._scan_rows.get(alias)
        if cached is None:
            cached = max(self.table_rows(alias) *
                         self.scan_selectivity(alias), 1.0)
            self._scan_rows[alias] = cached
        return cached

    # ------------------------------------------------------------------
    # Joins
    # ------------------------------------------------------------------
    def join_selectivity(self, join: JoinCondition) -> float:
        """Postgres eqjoinsel: ``1 / max(ndv_left, ndv_right)``."""
        cached = self._join_selectivity.get(join)
        if cached is None:
            ndvs = []
            for side in (join.left, join.right):
                column = self._statistics(side.table).column(side.column)
                ndvs.append(max(column.num_distinct, 1))
            cached = self._join_selectivity[join] = 1.0 / max(ndvs)
        return cached

    def check_aliases(self, aliases: frozenset[str]) -> None:
        if not aliases <= self._tables.keys():
            missing = sorted(aliases - self._tables.keys())
            raise OptimizerError(f"unknown aliases in join set: {missing}")

    def joined_rows(self, aliases: frozenset[str]) -> float:
        """Estimated cardinality of the join over ``aliases``.

        Product of filtered base cardinalities times the selectivity of
        the join edges internal to the set, restricted to a spanning
        forest of the column equivalence classes.  On acyclic join
        graphs every internal edge is in the forest, so this is the
        classical System-R product, bit-for-bit.  On rewritten queries
        the transitive-joins step adds redundant edges (``a=c`` next to
        ``a=b AND b=c``); counting them again would square selectivities
        and underestimate, so edges whose endpoint columns are already
        connected are skipped.  Edges are visited in ``query.joins``
        order (originals precede derived ones), keeping the estimate
        consistent across all join orders.
        """
        self.check_aliases(aliases)
        rows = 1.0
        # Sorted: float multiplication is rounding-order sensitive, and
        # set iteration order varies with the process hash seed — the
        # product must be bit-identical across processes (shard-cached
        # corpora, golden encodings).
        for alias in sorted(aliases):
            rows *= self.scan_rows(alias)
        parent: dict = {}

        def find(column):
            parent.setdefault(column, column)
            while parent[column] != column:
                parent[column] = parent[parent[column]]
                column = parent[column]
            return column

        for join in self.query.joins:
            if join.left.table in aliases and join.right.table in aliases:
                left_root, right_root = find(join.left), find(join.right)
                if left_root == right_root:
                    continue  # redundant within an equivalence class
                parent[left_root] = right_root
                rows *= self.join_selectivity(join)
        return max(rows, 1.0)

    # ------------------------------------------------------------------
    # Aggregation output
    # ------------------------------------------------------------------
    def group_count(self, input_rows: float) -> float:
        """Estimated number of groups for the query's GROUP BY."""
        if not self.query.group_by:
            return 1.0
        distinct = 1.0
        for column in self.query.group_by:
            stats = self._statistics(column.table)
            distinct *= max(stats.column(column.column).num_distinct, 1)
        return max(min(distinct, input_rows), 1.0)


@dataclass
class CardinalityEstimator:
    """Estimates cardinalities of query fragments on one database.

    The planner calls :meth:`bind` once per ``plan()`` and reads every
    estimate from the binding; a subclass that changes where numbers
    come from overrides :meth:`bind`.
    """

    database: Database

    def bind(self, query: Query) -> BoundCardinalities:
        """The estimates for ``query``, each computed at most once."""
        return BoundCardinalities(self.database, query)

    def table_rows(self, alias: str, query: Query) -> float:
        return self.bind(query).table_rows(alias)

    def predicate_selectivity(self, query: Query, predicate: Predicate) -> float:
        return self.bind(query).predicate_selectivity(predicate)

    def scan_selectivity(self, query: Query, alias: str) -> float:
        return self.bind(query).scan_selectivity(alias)

    def scan_rows(self, query: Query, alias: str) -> float:
        return self.bind(query).scan_rows(alias)

    def join_selectivity(self, query: Query, join: JoinCondition) -> float:
        return self.bind(query).join_selectivity(join)

    def joined_rows(self, query: Query, aliases: frozenset[str]) -> float:
        return self.bind(query).joined_rows(aliases)

    def group_count(self, query: Query, input_rows: float) -> float:
        return self.bind(query).group_count(input_rows)
