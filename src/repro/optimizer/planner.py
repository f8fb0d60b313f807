"""The cost-based planner: query -> annotated physical plan.

Pipeline:

1. choose the cheapest access path per table (seq scan vs index scan,
   including hypothetical indexes for what-if planning),
2. DP join enumeration over hash and (index) nested-loop joins,
3. aggregation on top,

annotating every node with estimated rows, width and cumulative cost.
One :meth:`Planner.plan` call binds its query once (``_PlanSearch``) and
drops the binding when it returns; the candidates for a join are priced
as floats and only the cheapest is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from repro.db.database import Database
from repro.db.index import Index
from repro.errors import OptimizerError
from repro.optimizer.cardinality import CardinalityEstimator
from repro.optimizer.cost_model import CPU_TUPLE_COST, CostModel
from repro.optimizer.join_order import enumerate_join_orders
from repro.optimizer.rewrite import RewritePlanner
from repro.plans.operators import (
    HashAggregate,
    HashBuild,
    HashJoin,
    IndexScan,
    NestedLoopJoin,
    PlainAggregate,
    PlanNode,
    SeqScan,
)
from repro.plans.plan import PhysicalPlan
from repro.sql.ast import JoinCondition, Predicate, Query
from repro.sql.validate import validate_query

__all__ = ["PlannerOptions", "Planner", "plan_query"]


@dataclass(frozen=True)
class PlannerOptions:
    """Operator toggles (like Postgres' ``enable_*`` GUCs).

    ``enable_rewrites`` turns on the logical rewrite phase
    (:mod:`repro.optimizer.rewrite`) in front of the cost-based search.
    With rewrites off the planner is bit-identical to the pre-rewrite
    pipeline.  ``enable_indexscan=False`` takes every index scan out of
    the search, a leaf's and an index nested loop's parameterized inner
    alike, as PostgreSQL's ``enable_indexscan = off`` does.
    """

    enable_seqscan: bool = True
    enable_indexscan: bool = True
    enable_hashjoin: bool = True
    enable_nestloop: bool = True
    enable_rewrites: bool = False


@dataclass
class _SubPlan:
    node: PlanNode
    rows: float
    width: float
    cost: float
    aliases: frozenset[str]


class Planner:
    """Plans queries for one database."""

    def __init__(self, database: Database,
                 options: PlannerOptions | None = None,
                 cardinality_estimator: CardinalityEstimator | None = None):
        self.database = database
        self.options = options or PlannerOptions()
        #: The injectable cardinality source the whole plan search reads
        #: through — the classical histogram estimator by default, or a
        #: :class:`~repro.optimizer.learned_cardinality.\
        #: LearnedCardinalityEstimator` drop-in.  Two estimators that
        #: return the same numbers yield identical plans.
        self.estimator = cardinality_estimator or \
            CardinalityEstimator(database)
        self.cost_model = CostModel(database)
        self._rewriter = RewritePlanner()

    def plan(self, query: Query) -> PhysicalPlan:
        """Produce the cheapest physical plan for ``query``.

        With ``enable_rewrites`` the *original* query is validated,
        then the rewrite phase runs and the search plans the rewritten
        query (which may be cyclic from transitive join inference and
        is therefore never re-validated).
        """
        self.cost_model.validate()
        validate_query(self.database.schema, query)

        trace = None
        scan_columns: dict[str, tuple[str, ...]] = {}
        if self.options.enable_rewrites:
            result = self._rewriter.rewrite(query)
            query = result.query
            trace = result.trace
            scan_columns = result.scan_columns

        root = _PlanSearch(self, query, scan_columns).run()
        plan = PhysicalPlan(root=root.node, query=query,
                            database_name=self.database.name)
        if trace is not None:
            plan.metadata["rewrite_trace"] = trace
        return plan


class _PlanSearch:
    """The state of one :meth:`Planner.plan` call.

    The (rewritten) query is bound here, after the rewrite phase, and
    nothing the search learns about it — cardinalities, usable indexes,
    pruned projections — outlives the call: the index advisor's
    :func:`~repro.tuning.advisor.hypothetical_indexes` adds and drops
    hypothetical indexes between plans and statistics can be
    re-analysed.
    """

    def __init__(self, planner: Planner, query: Query,
                 scan_columns: dict[str, tuple[str, ...]]):
        self.database = planner.database
        self.options = planner.options
        self.cost_model = planner.cost_model
        self.query = query
        self.cards = planner.estimator.bind(query)
        #: alias -> kept columns from projection pruning.  Empty when
        #: rewrites are off, so the legacy path is untouched.
        self.scan_columns = scan_columns
        self._indexes: dict[str, list[Index]] = {}
        self._joined_rows: dict[frozenset[str], float] = {}

    def run(self) -> _SubPlan:
        if len(self.query.tables) == 1:
            best = self._best_scan(self.query.tables[0].name)
        else:
            best = enumerate_join_orders(
                self.query,
                leaf_factory=self._best_scan,
                combine=self._best_join,
                better=lambda a, b: a.cost < b.cost,
            )
        return self._add_aggregation(best)

    # ------------------------------------------------------------------
    # Scans
    # ------------------------------------------------------------------
    def _table_width(self, alias: str) -> float:
        table = self.database.schema.table(
            self.cards.table_ref(alias).table_name)
        kept = self.scan_columns.get(alias)
        if kept is None:
            return float(table.tuple_width_bytes)
        return float(sum(table.column(name).width_bytes for name in kept))

    def _scan_candidates(self, alias: str) -> list[_SubPlan]:
        table_ref = self.cards.scanned_table(alias)
        table_name = table_ref.table_name
        predicates = self.cards.predicates_on(alias)
        width = self._table_width(alias)
        out_rows = self.cards.scan_rows(alias)
        projection = self.scan_columns.get(alias)
        candidates: list[_SubPlan] = []

        if self.options.enable_seqscan or not self._usable_indexes(alias):
            node = SeqScan(table=table_ref, filters=predicates,
                           projection=projection)
            node.est_rows = out_rows
            node.est_width = width
            node.est_cost = self.cost_model.seq_scan_cost(
                table_name, out_rows, len(predicates)
            )
            candidates.append(_SubPlan(node, out_rows, width, node.est_cost,
                                       frozenset({alias})))

        if self.options.enable_indexscan:
            for index, index_preds, residual in self._index_options(
                    alias, predicates):
                matched = self._index_matched_rows(alias, index_preds)
                node = IndexScan(
                    table=table_ref,
                    index_name=index.name,
                    index_column=index.column_name,
                    index_predicates=index_preds,
                    residual_filters=residual,
                    projection=projection,
                )
                node.est_rows = out_rows
                node.est_width = width
                node.est_cost = self.cost_model.index_scan_cost(
                    index, matched, table_name, len(residual)
                )
                candidates.append(_SubPlan(node, out_rows, width,
                                           node.est_cost, frozenset({alias})))
        if not candidates:
            raise OptimizerError(
                f"no access path for table {alias!r} "
                "(all scan types disabled?)"
            )
        return candidates

    def _usable_indexes(self, alias: str) -> list[Index]:
        indexes = self._indexes.get(alias)
        if indexes is None:
            indexes = self._indexes[alias] = self.database.indexes_on(
                self.cards.table_ref(alias).table_name)
        return indexes

    def _index_options(self, alias: str, predicates: tuple[Predicate, ...]):
        """(index, index_predicates, residual) combinations for a table."""
        for index in self._usable_indexes(alias):
            on_column = tuple(
                p for p in predicates
                if p.column.column == index.column_name
                and p.interval() is not None  # a B-tree serves key ranges
            )
            if not on_column:
                continue
            residual = tuple(p for p in predicates if p not in on_column)
            yield index, on_column, residual

    def _index_matched_rows(self, alias: str,
                            index_preds: tuple[Predicate, ...]) -> float:
        selectivity = 1.0
        for predicate in index_preds:
            selectivity *= self.cards.predicate_selectivity(predicate)
        return max(self.cards.table_rows(alias) * selectivity, 1.0)

    def _best_scan(self, alias: str) -> _SubPlan:
        return min(self._scan_candidates(alias), key=lambda s: s.cost)

    # ------------------------------------------------------------------
    # Joins
    # ------------------------------------------------------------------
    def _connecting_join(self, left: _SubPlan,
                         right: _SubPlan) -> JoinCondition | None:
        """The first condition, in ``query.joins`` order, with one side
        in each input."""
        for join in self.query.joins:
            a, b = join.left.table, join.right.table
            if (a in left.aliases and b in right.aliases) or \
                    (a in right.aliases and b in left.aliases):
                return join
        return None

    def _best_join(self, left: _SubPlan, right: _SubPlan) -> _SubPlan | None:
        """The cheapest join of two DP entries, or None for a cross
        product.

        Candidates are priced first, as ``(total cost, node builder,
        arguments)`` in a fixed sequence — hash l/r, hash r/l, index
        nested loop per side per index (index scans on), nested loop
        l/r, r/l — and ``min`` keeps the first of equal totals; only that
        candidate's nodes are constructed.
        """
        condition = self._connecting_join(left, right)
        if condition is None:
            return None
        out_aliases = left.aliases | right.aliases
        # The cardinality depends on the alias set alone: every split
        # of one DP mask shares it.
        out_rows = self._joined_rows.get(out_aliases)
        if out_rows is None:
            out_rows = self._joined_rows[out_aliases] = \
                self.cards.joined_rows(out_aliases)
        cost_model = self.cost_model
        candidates: list[tuple] = []

        if self.options.enable_hashjoin:
            for probe, build in ((left, right), (right, left)):
                build_cost = build.cost + \
                    cost_model.hash_build_cost(build.rows)
                increment = cost_model.hash_join_cost(
                    build.rows, probe.rows, out_rows)
                candidates.append((probe.cost + build_cost + increment,
                                   self._hash_join,
                                   (probe, build, build_cost)))

        if self.options.enable_nestloop:
            emit = out_rows * CPU_TUPLE_COST
            for outer, inner in ((left, right), (right, left)):
                if len(inner.aliases) != 1 or \
                        not self.options.enable_indexscan:
                    continue  # an INL inner is one table's index scan
                for index, lookup_cost in self._index_lookups(
                        outer, inner, condition, out_rows):
                    candidates.append((outer.cost + lookup_cost + emit,
                                       self._index_nested_loop,
                                       (outer, inner, index, lookup_cost,
                                        out_rows)))
            # Plain nested loop (materialized inner).
            for outer, inner in ((left, right), (right, left)):
                increment = cost_model.nested_loop_cost(
                    outer.rows, inner.rows, inner.cost, out_rows)
                candidates.append((outer.cost + increment,
                                   self._nested_loop, (outer, inner)))

        if not candidates:
            raise OptimizerError("all join strategies are disabled")
        total, build_node, arguments = min(candidates, key=itemgetter(0))
        node = build_node(condition, *arguments)
        node.est_rows = out_rows
        node.est_width = left.width + right.width
        node.est_cost = total
        return _SubPlan(node, out_rows, node.est_width, total, out_aliases)

    def _hash_join(self, condition: JoinCondition, probe: _SubPlan,
                   build: _SubPlan, build_cost: float) -> HashJoin:
        build_node = HashBuild(
            key=condition.side_for(self._owning_side(condition, build)),
            children=[build.node],
        )
        build_node.est_rows = build.rows
        build_node.est_width = build.width
        build_node.est_cost = build_cost
        return HashJoin(condition=condition,
                        children=[probe.node, build_node])

    def _index_lookups(self, outer: _SubPlan, inner: _SubPlan,
                       condition: JoinCondition, out_rows: float):
        """``(index, cost of the parameterized inner scans)`` per index
        on the join column of the single-table ``inner``."""
        inner_alias = next(iter(inner.aliases))
        inner_column = condition.side_for(inner_alias).column
        table_name = self.cards.table_ref(inner_alias).table_name
        for index in self._usable_indexes(inner_alias):
            if index.column_name != inner_column:
                continue
            # Total matched rows across all outer loops equals the
            # join cardinality before the inner residual filters; we
            # approximate with the post-filter join cardinality
            # divided by the residual selectivity.
            residual_sel = max(self.cards.scan_selectivity(inner_alias), 1e-7)
            yield index, self.cost_model.index_nested_loop_cost(
                outer.rows, index, out_rows / residual_sel, table_name)

    def _index_nested_loop(self, condition: JoinCondition, outer: _SubPlan,
                           inner: _SubPlan, index: Index, lookup_cost: float,
                           out_rows: float) -> NestedLoopJoin:
        inner_alias = next(iter(inner.aliases))
        # A new scan, not ``inner.node``: the DP entry stays untouched.
        inner_scan = IndexScan(
            table=self.cards.scanned_table(inner_alias),
            index_name=index.name,
            index_column=index.column_name,
            residual_filters=self.cards.predicates_on(inner_alias),
            lookup_column=condition.other_side(inner_alias),
            projection=self.scan_columns.get(inner_alias),
        )
        inner_scan.est_rows = out_rows
        inner_scan.est_width = self._table_width(inner_alias)
        inner_scan.est_cost = lookup_cost
        return NestedLoopJoin(condition=condition,
                              children=[outer.node, inner_scan])

    @staticmethod
    def _nested_loop(condition: JoinCondition, outer: _SubPlan,
                     inner: _SubPlan) -> NestedLoopJoin:
        return NestedLoopJoin(condition=condition,
                              children=[outer.node, inner.node])

    @staticmethod
    def _owning_side(condition: JoinCondition, sub: _SubPlan) -> str:
        if condition.left.table in sub.aliases:
            return condition.left.table
        if condition.right.table in sub.aliases:
            return condition.right.table
        raise OptimizerError(
            f"join condition {condition} does not touch subplan {sub.aliases}"
        )

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def _add_aggregation(self, input_plan: _SubPlan) -> _SubPlan:
        query = self.query
        if query.group_by:
            groups = self.cards.group_count(input_plan.rows)
            node = HashAggregate(group_by=query.group_by,
                                 aggregates=query.aggregates,
                                 children=[input_plan.node])
            out_rows = groups
            width = 8.0 * (len(query.aggregates) + len(query.group_by))
        else:
            node = PlainAggregate(aggregates=query.aggregates,
                                  children=[input_plan.node])
            out_rows = 1.0
            width = 8.0 * max(len(query.aggregates), 1)
        increment = self.cost_model.aggregate_cost(
            input_plan.rows, max(len(query.aggregates), 1), out_rows
        )
        node.est_rows = out_rows
        node.est_width = width
        node.est_cost = input_plan.cost + increment
        return _SubPlan(node, out_rows, width, node.est_cost,
                        input_plan.aliases)


def plan_query(database: Database, query: Query,
               options: PlannerOptions | None = None,
               cardinality_estimator: CardinalityEstimator | None = None
               ) -> PhysicalPlan:
    """Convenience wrapper: ``Planner(database, options).plan(query)``."""
    return Planner(database, options,
                   cardinality_estimator=cardinality_estimator).plan(query)
