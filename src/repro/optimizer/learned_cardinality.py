"""Learned cardinalities injected into the classical plan search.

The paper argues the optimizer's histogram heuristics drift on
correlated data (independence assumptions), and names cardinality
estimation as the next zero-shot task.  This module closes the loop:
:class:`LearnedCardinalityEstimator` is a **drop-in** for
:class:`~repro.optimizer.cardinality.CardinalityEstimator` — the DP
join enumerator, the planner and
:class:`~repro.optimizer.learned_planner.ZeroShotPlanSelector` consume
it through the exact same ``bind(query)`` → ``scan_rows`` /
``joined_rows`` surface, so two estimators that return the same numbers
produce identical plans.

On the first fragment request for a query, the estimator **primes** its
per-query cache in one pass:

1. every connected fragment of the query's join graph (the exact set
   the DP enumerator will price) gets a **canonical fragment plan** —
   per-alias scans joined by a deterministic left-deep hash-join chain,
   annotated with the classical heuristic estimates (the same
   transferable features the cardinality head was trained on).  The
   plans are built from shared nodes: every left-deep prefix of a
   canonical plan is the canonical plan of its prefix alias set, so the
   O(2^k) fragment plans of one query form one DAG;
2. the DAG is featurized once and one forward prices every fragment
   root, so each distinct subplan is featurized and forwarded a single
   time.  Each estimate equals pricing the fragment's own plan alone,
   bit for bit (batch-size-invariant forward, identical annotations on
   shared nodes); ``tests/optimizer/fragment_reference.py`` keeps that
   per-fragment pricing as the reference;
3. any fragment that cannot be priced (featurization gaps, model
   errors) and any request outside the primed set (e.g. a
   disconnected alias pair) falls back to the classical heuristic —
   uncovered fragments never break planning.

Predictions and fallbacks are counted (``learned_fragments`` /
``fallback_fragments``) so experiments can report coverage.
"""

from __future__ import annotations

from repro.db.database import Database
from repro.errors import (
    FeaturizationError,
    ModelError,
    OptimizerError,
    PlanError,
    QueryError,
)
from repro.models.cardinality import (
    ZeroShotCardinalityEstimator,
    require_deployable,
)
from repro.optimizer.cardinality import (
    BoundCardinalities,
    CardinalityEstimator,
)
from repro.plans.operators import HashBuild, HashJoin, PlanNode, SeqScan
from repro.sql.ast import JoinCondition, Query
from repro.util import LRUCache

__all__ = ["LearnedCardinalityEstimator"]

#: Exceptions that route a fragment to the heuristic fallback.
_FALLBACK_ERRORS = (FeaturizationError, ModelError, OptimizerError,
                    PlanError, QueryError)


class _LearnedCardinalities(BoundCardinalities):
    """A query bound to a :class:`LearnedCardinalityEstimator`: fragment
    rows come from the estimator's per-query cache, everything else
    (selectivities, group counts) stays classical."""

    def __init__(self, estimator: "LearnedCardinalityEstimator",
                 query: Query):
        super().__init__(estimator.database, query)
        self._estimator = estimator
        #: The purely classical estimates, for fallbacks and
        #: fragment-plan annotations.  A second binding, not ``super()``:
        #: the classical ``joined_rows`` calls ``scan_rows``, and dynamic
        #: dispatch would route that back into the learned override.
        self.heuristic = BoundCardinalities(estimator.database, query)

    def scan_rows(self, alias: str) -> float:
        return self._estimator._fragment_rows(self, frozenset({alias}))

    def joined_rows(self, aliases: frozenset[str]) -> float:
        self.check_aliases(aliases)
        return self._estimator._fragment_rows(self, frozenset(aliases))


class LearnedCardinalityEstimator(CardinalityEstimator):
    """Cardinalities from a zero-shot cardinality head, with fallback.

    Parameters
    ----------
    database:
        The database plans are being built for.
    model:
        A fitted
        :class:`~repro.models.cardinality.ZeroShotCardinalityEstimator`,
        the estimator with ``predict_cardinalities``.
    cached_queries:
        LRU bound on the number of *queries* whose fragment estimates
        are cached (each query's DP search prices O(2^k) fragments; a
        long-lived estimator behind a workload runner must not grow
        without bound).  Evicting a query drops all its fragments.
    """

    def __init__(self, database: Database,
                 model: ZeroShotCardinalityEstimator,
                 cached_queries: int = 256):
        require_deployable(model, "learned cardinality estimation")
        if not isinstance(model, ZeroShotCardinalityEstimator):
            raise ModelError(
                "LearnedCardinalityEstimator needs a "
                "ZeroShotCardinalityEstimator (the estimator with "
                f"predict_cardinalities), not {type(model).__name__}"
            )
        if cached_queries < 1:
            raise ModelError("cached_queries must be positive")
        super().__init__(database)
        self.model = model
        self.cached_queries = cached_queries
        #: Fragments priced by the model / by the heuristic fallback.
        self.learned_fragments = 0
        self.fallback_fragments = 0
        #: Per-query fragment caches, LRU over queries, keyed by the
        #: query *value* (a frozen dataclass): equal queries share
        #: their estimates, which are a function of (query, database,
        #: model).
        self._cache = LRUCache(cached_queries)

    # ------------------------------------------------------------------
    # The drop-in surface the planner reads
    # ------------------------------------------------------------------
    def bind(self, query: Query) -> _LearnedCardinalities:
        """``scan_rows`` / ``joined_rows`` (inherited, like the planner,
        they read through the binding) answer from the fragment cache."""
        return _LearnedCardinalities(self, query)

    # ------------------------------------------------------------------
    def _fragment_rows(self, bound: _LearnedCardinalities,
                       aliases: frozenset[str]) -> float:
        fragments = self._cache.get(bound.query)
        if fragments is None:
            fragments = {}
            self._cache.put(bound.query, fragments)
            self._prime_query(bound.heuristic, fragments)
        cached = fragments.get(aliases)
        if cached is not None:
            return cached
        # Outside the primed set (disconnected pair, failed fragment):
        # classical heuristic, cached per fragment.
        if len(aliases) == 1:
            rows = bound.heuristic.scan_rows(next(iter(aliases)))
        else:
            rows = bound.heuristic.joined_rows(aliases)
        self.fallback_fragments += 1
        fragments[aliases] = rows
        return rows

    def _prime_query(self, heuristic: BoundCardinalities,
                     fragments: dict[frozenset[str], float]) -> None:
        """Price every connected fragment of ``heuristic.query`` (the DP
        enumerator will request exactly these) through ONE merged graph
        whose fragments share subplans; ``heuristic`` annotates the
        fragment plans.

        The fragment roots come from :meth:`_shared_fragment_root`, so
        every distinct scan / HashBuild / prefix join is one node of
        the DAG and is featurized and forwarded once.  Each fragment's
        estimate is read at its root's own ``plan_op`` row.  A fragment
        whose plan cannot be built, and every fragment when the
        featurize or the forward fails, is priced by the heuristic on
        demand.
        """
        from repro.optimizer.join_order import connected_subsets

        # The join adjacency is built ONCE per query here and threaded
        # through every fragment-plan construction, instead of scanning
        # query.joins per candidate alias per fragment (O(joins * n^2)
        # per fragment).
        adjacency = self._join_adjacency(heuristic.query)
        scans: dict[str, PlanNode] = {}
        builds: dict[tuple[str, str], PlanNode] = {}
        roots: dict[frozenset[str], PlanNode] = {}
        keys: list[frozenset[str]] = []
        root_nodes: list[PlanNode] = []
        # Size order guarantees a fragment's prefixes are (usually)
        # memoized before their supersets ask for them, and puts the
        # full alias set last, which makes it the merged graph's root.
        for aliases in sorted(connected_subsets(heuristic.query), key=len):
            try:
                root_nodes.append(
                    self._shared_fragment_root(heuristic, aliases, adjacency,
                                               scans, builds, roots))
                keys.append(aliases)
            except _FALLBACK_ERRORS:
                continue  # priced heuristically on demand
        if not root_nodes:
            return
        try:
            graph, root_ids = self.model.featurizer.featurize_shared(
                root_nodes, heuristic.query, self.database)
            cards = self.model.model.predict_cardinalities([graph])[0]
        except _FALLBACK_ERRORS:
            return
        for aliases, root_id in zip(keys, root_ids):
            row = graph.type_row_of[root_id]
            fragments[aliases] = max(float(cards[row]), 1.0)
            self.learned_fragments += 1

    # ------------------------------------------------------------------
    # Canonical fragment plans
    # ------------------------------------------------------------------
    def _scan_node(self, heuristic: BoundCardinalities,
                   alias: str) -> PlanNode:
        table = heuristic.scanned_table(alias)
        node = SeqScan(table=table, filters=heuristic.predicates_on(alias))
        node.est_rows = heuristic.scan_rows(alias)
        node.est_width = float(
            self.database.schema.table(table.table_name).tuple_width_bytes)
        return node

    @staticmethod
    def _join_adjacency(query: Query
                        ) -> dict[str, tuple[tuple[str, JoinCondition], ...]]:
        """``alias -> ((neighbour, join), ...)`` in ``query.joins`` order.

        Built once per query, instead of a full scan of the join list
        once per remaining alias per join step.  The per-alias tuples
        preserve the join list's order, so a lookup finds the first
        connecting edge in ``query.joins`` order, as the planner's
        ``_connecting_join`` does.  Self-referencing edges (both sides
        on one alias) are dropped: they never connect two disjoint
        alias sets.
        """
        adjacency: dict[str, list[tuple[str, JoinCondition]]] = {
            alias: [] for alias in query.table_names}
        for join in query.joins:
            left, right = join.left.table, join.right.table
            if left == right:
                continue
            adjacency.setdefault(left, []).append((right, join))
            adjacency.setdefault(right, []).append((left, join))
        return {alias: tuple(edges) for alias, edges in adjacency.items()}

    @staticmethod
    def _greedy_sequence(aliases: frozenset[str],
                         adjacency: dict[str, tuple[tuple[str, JoinCondition],
                                                    ...]]
                         ) -> list[tuple[str, JoinCondition | None]]:
        """The canonical join order over ``aliases``: start at the
        sorted-first alias, repeatedly add the sorted-first remaining
        alias that connects, via its earliest connecting edge.

        Returns ``[(alias, None), (alias, condition), ...]``.
        """
        order = sorted(aliases)
        joined: set[str] = {order[0]}
        sequence: list[tuple[str, JoinCondition | None]] = [(order[0], None)]
        remaining = order[1:]
        while remaining:
            next_alias = None
            condition = None
            for alias in remaining:
                for neighbour, join in adjacency.get(alias, ()):
                    if neighbour in joined:
                        next_alias = alias
                        condition = join
                        break
                if next_alias is not None:
                    break
            if next_alias is None:
                raise OptimizerError(
                    f"fragment {sorted(aliases)} is not connected"
                )
            remaining.remove(next_alias)
            joined.add(next_alias)
            sequence.append((next_alias, condition))
        return sequence

    def _shared_fragment_root(self, heuristic: BoundCardinalities,
                              aliases: frozenset[str],
                              adjacency: dict,
                              scans: dict[str, PlanNode],
                              builds: dict[tuple[str, str], PlanNode],
                              roots: dict[frozenset[str], PlanNode]
                              ) -> PlanNode:
        """The canonical fragment plan's root, built from shared nodes.

        The plan is a deterministic left-deep hash-join chain over
        ``aliases`` (:meth:`_greedy_sequence`), so a fragment's learned
        cardinality does not depend on which join order the enumerator
        happens to probe.  Heuristic row estimates annotate every node —
        exactly the ESTIMATED-source features the head was trained to
        correct.

        Rewritten queries (``enable_rewrites``) may carry a transitively
        closed, cyclic edge set.  Canonicalization still holds: the
        greedy step picks the earliest connecting edge in
        ``query.joins`` order (via the prebuilt adjacency), and the
        rewrite phase appends derived edges *after* the originals, so
        fragment plans prefer original FK edges and only use a derived
        edge where it alone connects the fragment (which is precisely
        when it unlocks a new order).

        Memoization levels (all per primed query):

        * ``scans`` — one scan node per alias (every fragment containing
          the alias reuses it);
        * ``builds`` — one HashBuild per ``(alias, build key)``
          (fragments joining the alias through the same edge share it);
        * ``roots`` — one join node per *alias set*: a left-deep prefix
          over set P is the canonical plan of P (prefixes of a greedy
          canonical order are themselves canonical), so prefix joins
          are shared across every fragment extending them.

        A node's annotations (``est_rows``/``est_width``) do not depend
        on what it is shared with, so the shared DAG featurizes to the
        same per-node features as the standalone fragment plans.  With
        empty memos this builds a fragment's own standalone plan: a
        single fragment repeats no alias, so its DAG is a tree.
        """
        cached = roots.get(aliases)
        if cached is not None:
            return cached

        def scan_of(alias: str) -> PlanNode:
            node = scans.get(alias)
            if node is None:
                node = self._scan_node(heuristic, alias)
                scans[alias] = node
                roots.setdefault(frozenset({alias}), node)
            return node

        sequence = self._greedy_sequence(aliases, adjacency)
        current = scan_of(sequence[0][0])
        joined: set[str] = {sequence[0][0]}
        for next_alias, condition in sequence[1:]:
            joined.add(next_alias)
            prefix = frozenset(joined)
            existing = roots.get(prefix)
            if existing is not None:
                current = existing
                continue
            key = condition.side_for(next_alias)
            build_key = (next_alias, str(key))
            build = builds.get(build_key)
            if build is None:
                build_input = scan_of(next_alias)
                build = HashBuild(key=key, children=[build_input])
                build.est_rows = build_input.est_rows
                build.est_width = build_input.est_width
                builds[build_key] = build
            node = HashJoin(condition=condition, children=[current, build])
            node.est_rows = heuristic.joined_rows(prefix)
            node.est_width = current.est_width + build.est_width
            current = node
            roots[prefix] = node
        return current
