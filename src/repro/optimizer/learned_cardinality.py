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
per-query cache in one batched model call:

1. every connected fragment of the query's join graph (the exact set
   the DP enumerator will price) is rendered as a **canonical fragment
   plan** — per-alias scans joined by a deterministic left-deep
   hash-join chain, annotated with the classical heuristic estimates
   (the same transferable features the cardinality head was trained
   on);
2. one batched prediction prices all fragment roots at once (batch
   inference is bit-identical to per-plan calls, so the batching is
   purely a latency win — O(2^k) single-graph forwards collapse into
   one);
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
from repro.models.api import CostEstimator
from repro.models.cardinality import require_deployable
from repro.models.estimators import ZeroShotEstimator
from repro.optimizer.cardinality import (
    BoundCardinalities,
    CardinalityEstimator,
)
from repro.plans.operators import HashBuild, HashJoin, PlanNode, SeqScan
from repro.plans.plan import PhysicalPlan
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
        A fitted cardinality predictor over estimated cardinalities: a
        :class:`~repro.models.cardinality.ZeroShotCardinalityEstimator`
        (anything exposing ``predict_cardinalities(plans, database)``).
    fallback_only:
        Force every fragment onto the classical heuristic (useful to
        verify plan-identity: with fallback the planner's output is
        bit-identical to the classical planner's).
    cached_queries:
        LRU bound on the number of *queries* whose fragment estimates
        are cached (each query's DP search prices O(2^k) fragments; a
        long-lived estimator behind a workload runner must not grow
        without bound).  Evicting a query drops all its fragments.
    dedup_fragments:
        Share subplans across a query's canonical fragment plans when
        priming (default on).  The O(2^k) left-deep fragment plans of
        one query share scan and prefix subtrees by construction, so
        the primed set is encoded as ONE merged graph in which every
        distinct subplan is featurized and forwarded exactly once —
        far fewer encoder node-forwards, bit-identical estimates
        (batch-size-invariant forward + order-preserving DeepSets
        aggregation).  ``False`` keeps the per-fragment path as the
        reference oracle; models without a graph-level prediction
        surface fall back to it automatically.
    """

    def __init__(self, database: Database, model: CostEstimator,
                 fallback_only: bool = False,
                 cached_queries: int = 256,
                 dedup_fragments: bool = True):
        require_deployable(model, "learned cardinality estimation")
        if not hasattr(model, "predict_cardinalities"):
            raise ModelError(
                "LearnedCardinalityEstimator needs a model with "
                "predict_cardinalities (a cardinality-head estimator)"
            )
        if cached_queries < 1:
            raise ModelError("cached_queries must be positive")
        super().__init__(database)
        self.model = model
        self.fallback_only = fallback_only
        self.dedup_fragments = dedup_fragments
        self.cached_queries = cached_queries
        self._predict = model.predict_cardinalities
        #: ``graphs -> [per-graph cardinality arrays]``: subgraph dedup
        #: hands a merged plan graph to the wrapped zero-shot core
        #: model.  Any other predictor (a plan-level mock) primes
        #: through the per-fragment path.
        self._predict_graphs = model.model.predict_cardinalities \
            if isinstance(model, ZeroShotEstimator) else None
        #: Fragments priced by the model / by the heuristic fallback.
        self.learned_fragments = 0
        self.fallback_fragments = 0
        #: Plan-graph nodes featurized + forwarded while priming with
        #: subgraph dedup (observability for the encode-once gate; the
        #: legacy per-fragment path encodes inside the model, where the
        #: microbench counts nodes at the prediction surface instead).
        self.primed_graph_nodes = 0
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
            if not self.fallback_only:
                self._prime_query(bound.heuristic, fragments)
        cached = fragments.get(aliases)
        if cached is not None:
            return cached
        # Outside the primed set (disconnected pair, failed fragment,
        # fallback-only mode): classical heuristic, cached per fragment.
        if len(aliases) == 1:
            rows = bound.heuristic.scan_rows(next(iter(aliases)))
        else:
            rows = bound.heuristic.joined_rows(aliases)
        self.fallback_fragments += 1
        fragments[aliases] = rows
        return rows

    def _prime_query(self, heuristic: BoundCardinalities,
                     fragments: dict[frozenset[str], float]) -> None:
        """Price every connected fragment of ``heuristic.query`` in ONE
        batched model call (the DP enumerator will request exactly
        these); ``heuristic`` annotates the fragment plans.

        The workload space caps join width at a handful of tables, so
        the connected-subset enumeration is tiny; batching collapses
        what would be O(2^k) single-graph forward passes into one.
        With ``dedup_fragments`` (and a graph-capable model) the
        fragments additionally share subplan encodings — see
        :meth:`_prime_query_deduped`.
        """
        from repro.optimizer.join_order import connected_subsets

        # The join adjacency is built ONCE per query here and threaded
        # through every fragment-plan construction, instead of scanning
        # query.joins per candidate alias per fragment (O(joins * n^2)
        # per fragment).
        query = heuristic.query
        adjacency = self._join_adjacency(query)
        subsets = connected_subsets(query)
        if self.dedup_fragments and self._predict_graphs is not None:
            if self._prime_query_deduped(heuristic, fragments, subsets,
                                         adjacency):
                return
        plans: list[PhysicalPlan] = []
        keys: list[frozenset[str]] = []
        for aliases in subsets:
            try:
                plans.append(self._fragment_plan(heuristic, aliases,
                                                 adjacency))
                keys.append(aliases)
            except _FALLBACK_ERRORS:
                continue  # this fragment will be priced heuristically
        if not plans:
            return
        try:
            predictions = self._predict(plans, self.database)
        except _FALLBACK_ERRORS:
            return
        for aliases, cards in zip(keys, predictions):
            # Pre-order: entry 0 is the fragment root.
            fragments[aliases] = max(float(cards[0]), 1.0)
            self.learned_fragments += 1

    def _prime_query_deduped(self, heuristic: BoundCardinalities,
                             fragments: dict[frozenset[str], float],
                             subsets: list[frozenset[str]],
                             adjacency: dict) -> bool:
        """Prime via ONE merged graph whose fragments share subplans.

        Canonical fragment plans are left-deep over a deterministic
        greedy order, and every left-deep *prefix* of a canonical plan
        is itself the canonical plan of its (connected) prefix alias
        set.  So the O(2^k) fragment plans of one query collapse into a
        DAG of shared scan / HashBuild / prefix-join nodes; encoding
        that DAG once featurizes and forwards each distinct subplan a
        single time instead of once per containing fragment.  Estimates
        are bit-identical to the per-fragment path: shared nodes carry
        the same heuristic annotations, the forward pass is
        batch-size-invariant, and each fragment's estimate is read at
        its root's own ``plan_op`` row.

        Returns True when priming happened (fragments filled, possibly
        partially); False routes the caller onto the legacy path.
        """
        scans: dict[str, PlanNode] = {}
        builds: dict[tuple[str, str], PlanNode] = {}
        roots: dict[frozenset[str], PlanNode] = {}
        keys: list[frozenset[str]] = []
        root_nodes: list[PlanNode] = []
        # Size order guarantees a fragment's prefixes are (usually)
        # memoized before their supersets ask for them, and puts the
        # full alias set last, which makes it the merged graph's root.
        for aliases in sorted(subsets, key=len):
            try:
                root_nodes.append(
                    self._shared_fragment_root(heuristic, aliases, adjacency,
                                               scans, builds, roots))
                keys.append(aliases)
            except _FALLBACK_ERRORS:
                continue  # priced heuristically on demand
        if not root_nodes:
            return True  # nothing to prime; same outcome as legacy
        try:
            graph, root_ids = self.model.featurizer.featurize_shared(
                root_nodes, heuristic.query, self.database)
            predictions = self._predict_graphs([graph])
        except _FALLBACK_ERRORS:
            return False  # let the legacy path try per-fragment
        cards = predictions[0]
        self.primed_graph_nodes += graph.num_nodes
        for aliases, root_id in zip(keys, root_ids):
            row = graph.type_row_of[root_id]
            fragments[aliases] = max(float(cards[row]), 1.0)
            self.learned_fragments += 1
        return True

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

    def _fragment_plan(self, heuristic: BoundCardinalities,
                       aliases: frozenset[str], adjacency: dict
                       ) -> PhysicalPlan:
        """Deterministic left-deep hash-join plan over ``aliases``.

        The shape is canonical (sorted aliases, greedy connection), so
        a fragment's learned cardinality does not depend on which join
        order the enumerator happens to probe.  Heuristic row estimates
        annotate every node — exactly the ESTIMATED-source features the
        head was trained to correct.

        Rewritten queries (``enable_rewrites``) may carry a transitively
        closed, cyclic edge set.  Canonicalization still holds: the
        greedy step picks the earliest connecting edge in
        ``query.joins`` order (via the prebuilt adjacency), and the
        rewrite phase appends derived edges *after* the originals, so
        fragment plans prefer original FK edges and only use a derived
        edge where it alone connects the fragment (which is precisely
        when it unlocks a new order).

        It is :meth:`_shared_fragment_root` with nothing to share: a
        single fragment repeats no alias, so its DAG is a tree.
        """
        return PhysicalPlan(
            root=self._shared_fragment_root(heuristic, aliases, adjacency,
                                            {}, {}, {}),
            query=heuristic.query, database_name=self.database.name)

    def _shared_fragment_root(self, heuristic: BoundCardinalities,
                              aliases: frozenset[str],
                              adjacency: dict,
                              scans: dict[str, PlanNode],
                              builds: dict[tuple[str, str], PlanNode],
                              roots: dict[frozenset[str], PlanNode]
                              ) -> PlanNode:
        """The canonical fragment plan's root, built from shared nodes.

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
        same per-node features as the standalone fragment plans.
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
