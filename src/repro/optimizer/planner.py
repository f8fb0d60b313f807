"""The cost-based planner: query -> annotated physical plan.

Pipeline:

1. choose the cheapest access path per table (seq scan vs index scan,
   including hypothetical indexes for what-if planning),
2. DP join enumeration over hash / merge / (index) nested-loop joins,
3. aggregation on top,

annotating every node with estimated rows, width and cumulative cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.db.database import Database
from repro.db.index import Index
from repro.errors import OptimizerError
from repro.optimizer.cardinality import CardinalityEstimator
from repro.optimizer.cost_model import CostModel, CostParameters
from repro.optimizer.join_order import enumerate_join_orders
from repro.optimizer.rewrite import RewritePlanner, RewriteTrace
from repro.plans.operators import (
    HashAggregate,
    HashBuild,
    HashJoin,
    IndexScan,
    MergeJoin,
    NestedLoopJoin,
    PlainAggregate,
    PlanNode,
    SeqScan,
    Sort,
)
from repro.plans.plan import PhysicalPlan
from repro.sql.ast import ColumnRef, Predicate, Query, TableRef
from repro.sql.validate import validate_query

__all__ = ["PlannerOptions", "Planner", "plan_query"]


@dataclass(frozen=True)
class PlannerOptions:
    """Operator toggles (like Postgres' ``enable_*`` GUCs) and cost knobs.

    ``enable_rewrites`` turns on the logical rewrite phase
    (:mod:`repro.optimizer.rewrite`) in front of the cost-based search;
    ``disabled_rules`` names registered rules to skip (unknown names
    raise eagerly at planner construction).  With rewrites off the
    planner is bit-identical to the pre-rewrite pipeline.
    """

    enable_seqscan: bool = True
    enable_indexscan: bool = True
    enable_hashjoin: bool = True
    enable_mergejoin: bool = True
    enable_nestloop: bool = True
    use_hypothetical_indexes: bool = True
    enable_rewrites: bool = False
    disabled_rules: tuple[str, ...] = ()
    cost_parameters: CostParameters = field(default_factory=CostParameters)


@dataclass
class _SubPlan:
    node: PlanNode
    rows: float
    width: float
    cost: float
    aliases: frozenset[str]
    sorted_on: ColumnRef | None = None


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
        self.cost_model = CostModel(database, self.options.cost_parameters)
        #: Trace of the rewrite phase for the most recent :meth:`plan`
        #: call (also stored in ``plan.metadata["rewrite_trace"]``);
        #: ``None`` when rewrites are disabled.
        self.last_rewrite_trace: RewriteTrace | None = None
        #: alias -> kept columns from projection pruning, consumed by
        #: :meth:`_table_width` and the scan builders.  Empty when
        #: rewrites are off, so the legacy path is untouched.
        self._scan_columns: dict[str, tuple[str, ...]] = {}
        # Constructed even when enable_rewrites is False so a typo'd
        # disabled_rules entry fails eagerly, mirroring resolve_backend.
        self._rewriter: RewritePlanner | None = None
        if self.options.enable_rewrites or self.options.disabled_rules:
            self._rewriter = RewritePlanner(
                schema=database.schema,
                disabled_rules=self.options.disabled_rules,
            )

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
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
        self._scan_columns = {}
        if self.options.enable_rewrites and self._rewriter is not None:
            result = self._rewriter.rewrite(query)
            query = result.query
            trace = result.trace
            self._scan_columns = result.scan_columns
        self.last_rewrite_trace = trace

        if len(query.tables) == 1:
            best = self._best_scan(query, query.tables[0].name)
        else:
            best = enumerate_join_orders(
                query,
                leaf_factory=lambda alias: self._best_scan(query, alias),
                combine=lambda l, r: self._best_join(query, l, r),
                better=lambda a, b: a.cost < b.cost,
            )
        root = self._add_aggregation(query, best)
        plan = PhysicalPlan(root=root.node, query=query,
                            database_name=self.database.name)
        if trace is not None:
            plan.metadata["rewrite_trace"] = trace
        return plan

    # ------------------------------------------------------------------
    # Scans
    # ------------------------------------------------------------------
    def _table_width(self, query: Query, alias: str) -> float:
        table = self.database.schema.table(query.table_ref(alias).table_name)
        kept = self._scan_columns.get(alias)
        if kept is None:
            return float(table.tuple_width_bytes)
        return float(sum(table.column(name).width_bytes for name in kept))

    def _scan_candidates(self, query: Query, alias: str) -> list[_SubPlan]:
        table_name = query.table_ref(alias).table_name
        table_ref = TableRef(table_name, alias if alias != table_name else None)
        predicates = query.predicates_on(alias)
        width = self._table_width(query, alias)
        out_rows = self.estimator.scan_rows(query, alias)
        projection = self._scan_columns.get(alias)
        candidates: list[_SubPlan] = []

        if self.options.enable_seqscan or not self._usable_indexes(query, alias):
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
                    query, alias, predicates):
                matched = self._index_matched_rows(query, alias, index_preds)
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
                candidates.append(
                    _SubPlan(node, out_rows, width, node.est_cost,
                             frozenset({alias}),
                             sorted_on=ColumnRef(alias, index.column_name))
                )
        if not candidates:
            raise OptimizerError(
                f"no access path for table {alias!r} "
                "(all scan types disabled?)"
            )
        return candidates

    def _usable_indexes(self, query: Query, alias: str) -> list[Index]:
        table_name = query.table_ref(alias).table_name
        return self.database.indexes_on(
            table_name,
            include_hypothetical=self.options.use_hypothetical_indexes,
        )

    def _index_options(self, query: Query, alias: str,
                       predicates: tuple[Predicate, ...]):
        """(index, index_predicates, residual) combinations for a table."""
        for index in self._usable_indexes(query, alias):
            on_column = tuple(
                p for p in predicates
                if p.column.column == index.column_name
                and p.interval() is not None  # a B-tree serves key ranges
            )
            if not on_column:
                continue
            residual = tuple(p for p in predicates if p not in on_column)
            yield index, on_column, residual

    def _index_matched_rows(self, query: Query, alias: str,
                            index_preds: tuple[Predicate, ...]) -> float:
        selectivity = 1.0
        for predicate in index_preds:
            selectivity *= self.estimator.predicate_selectivity(query, predicate)
        return max(self.estimator.table_rows(alias, query) * selectivity, 1.0)

    def _best_scan(self, query: Query, alias: str) -> _SubPlan:
        return min(self._scan_candidates(query, alias), key=lambda s: s.cost)

    # ------------------------------------------------------------------
    # Joins
    # ------------------------------------------------------------------
    def _best_join(self, query: Query, left: _SubPlan,
                   right: _SubPlan) -> _SubPlan | None:
        joins = query.joins_between(left.aliases, right.aliases)
        if not joins:
            return None  # avoid cross products
        condition = joins[0]
        out_aliases = left.aliases | right.aliases
        out_rows = self.estimator.joined_rows(query, out_aliases)
        out_width = left.width + right.width
        candidates: list[_SubPlan] = []

        if self.options.enable_hashjoin:
            for probe, build in ((left, right), (right, left)):
                build_node = HashBuild(
                    key=condition.side_for(self._owning_side(condition, build)),
                    children=[build.node],
                )
                build_node.est_rows = build.rows
                build_node.est_width = build.width
                build_node.est_cost = (build.cost +
                                       self.cost_model.hash_build_cost(build.rows))
                node = HashJoin(condition=condition,
                                children=[probe.node, build_node])
                increment = self.cost_model.hash_join_cost(
                    build.rows, probe.rows, out_rows
                )
                self._annotate_join(node, out_rows, out_width,
                                    probe.cost + build_node.est_cost + increment)
                candidates.append(_SubPlan(node, out_rows, out_width,
                                           node.est_cost, out_aliases))

        if self.options.enable_mergejoin:
            left_sorted = self._sorted_input(left, condition)
            right_sorted = self._sorted_input(right, condition)
            node = MergeJoin(condition=condition,
                             children=[left_sorted.node, right_sorted.node])
            increment = self.cost_model.merge_join_cost(
                left.rows, right.rows, out_rows
            )
            total = left_sorted.cost + right_sorted.cost + increment
            self._annotate_join(node, out_rows, out_width, total)
            candidates.append(_SubPlan(node, out_rows, out_width, total,
                                       out_aliases,
                                       sorted_on=left_sorted.sorted_on))

        if self.options.enable_nestloop:
            inl = self._index_nested_loop(query, left, right, condition,
                                          out_rows, out_width, out_aliases)
            candidates.extend(inl)
            # Plain nested loop (materialized inner).
            for outer, inner in ((left, right), (right, left)):
                node = NestedLoopJoin(condition=condition,
                                      children=[outer.node, inner.node])
                increment = self.cost_model.nested_loop_cost(
                    outer.rows, inner.rows, inner.cost, out_rows
                )
                total = outer.cost + increment
                self._annotate_join(node, out_rows, out_width, total)
                candidates.append(_SubPlan(node, out_rows, out_width, total,
                                           out_aliases))

        if not candidates:
            raise OptimizerError("all join strategies are disabled")
        return min(candidates, key=lambda s: s.cost)

    def _index_nested_loop(self, query: Query, left: _SubPlan, right: _SubPlan,
                           condition, out_rows: float, out_width: float,
                           out_aliases: frozenset[str]) -> list[_SubPlan]:
        """INL join candidates: inner side must be a single indexed table."""
        candidates = []
        for outer, inner in ((left, right), (right, left)):
            if len(inner.aliases) != 1:
                continue
            inner_alias = next(iter(inner.aliases))
            inner_key = condition.side_for(inner_alias)
            outer_key = condition.other_side(inner_alias)
            table_name = query.table_ref(inner_alias).table_name
            indexes = self.database.indexes_on(
                table_name, inner_key.column,
                include_hypothetical=self.options.use_hypothetical_indexes,
            )
            for index in indexes:
                inner_scan = IndexScan(
                    table=TableRef(table_name,
                                   inner_alias if inner_alias != table_name
                                   else None),
                    index_name=index.name,
                    index_column=index.column_name,
                    residual_filters=query.predicates_on(inner_alias),
                    lookup_column=outer_key,
                    projection=self._scan_columns.get(inner_alias),
                )
                # Total matched rows across all outer loops equals the
                # join cardinality before the inner residual filters; we
                # approximate with the post-filter join cardinality
                # divided by the residual selectivity.
                residual_sel = max(
                    self.estimator.scan_selectivity(query, inner_alias), 1e-7
                )
                matched = out_rows / residual_sel
                inner_scan.est_rows = out_rows
                inner_scan.est_width = self._table_width(query, inner_alias)
                inner_scan.est_cost = self.cost_model.index_nested_loop_cost(
                    outer.rows, index, matched, table_name
                )
                node = NestedLoopJoin(
                    condition=condition,
                    children=[outer.node, inner_scan],
                )
                total = outer.cost + inner_scan.est_cost + \
                    out_rows * self.cost_model.parameters.cpu_tuple_cost
                self._annotate_join(node, out_rows, out_width, total)
                candidates.append(_SubPlan(node, out_rows, out_width, total,
                                           out_aliases))
        return candidates

    def _sorted_input(self, sub: _SubPlan, condition) -> _SubPlan:
        """Wrap a subplan in a Sort on its join key (reuse existing order)."""
        key = condition.side_for(self._owning_side(condition, sub))
        if sub.sorted_on == key:
            return sub
        sort = Sort(key=key, children=[sub.node])
        sort_cost = self.cost_model.sort_cost(sub.rows)
        sort.est_rows = sub.rows
        sort.est_width = sub.width
        sort.est_cost = sub.cost + sort_cost
        return replace(sub, node=sort, cost=sort.est_cost, sorted_on=key)

    @staticmethod
    def _owning_side(condition, sub: _SubPlan) -> str:
        if condition.left.table in sub.aliases:
            return condition.left.table
        if condition.right.table in sub.aliases:
            return condition.right.table
        raise OptimizerError(
            f"join condition {condition} does not touch subplan {sub.aliases}"
        )

    @staticmethod
    def _annotate_join(node: PlanNode, rows: float, width: float,
                       cost: float) -> None:
        node.est_rows = rows
        node.est_width = width
        node.est_cost = cost

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def _add_aggregation(self, query: Query, input_plan: _SubPlan) -> _SubPlan:
        if query.group_by:
            groups = self.estimator.group_count(query, input_plan.rows)
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
