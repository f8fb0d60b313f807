"""One contract per shared mechanism.

Every cache in the library is a :class:`repro.util.LRUCache`, so the
behaviour each owner promises is checked once, parametrized over the
owners, instead of once per owner in its own words.  The same goes for
levelling a plan: zero-shot graphs and E2E trees are levelled by one
function.  The executor and the simulator dispatch through a
``{operator class: method}`` dict each; the tests check that every
plan operator has an entry in both and that an entry swapped in there
is what actually runs.
"""

import numpy as np
import pytest

from repro.engine import BuildSideCache, Executor, execute_plan
from repro.engine.compiled_filters import CompiledFilterCache
from repro.errors import (
    ExecutionError,
    FeaturizationError,
    ModelError,
)
import repro.featurize.graph
import repro.models.e2e
import repro.plans
from repro.featurize import (
    CardinalitySource,
    E2ETreeSample,
    LevelPlanCache,
    PlanGraph,
    ZeroShotFeaturizer,
    encode_graph,
    encode_graphs,
)
from repro.featurize.graph import FEATURE_DIMS
from repro.models import TrainerConfig, ZeroShotConfig, get_estimator
from repro.optimizer import Planner, PlannerOptions, plan_query
from repro.optimizer.learned_cardinality import LearnedCardinalityEstimator
from repro.plans import PlanNode, SeqScan
from repro.runtime import RuntimeSimulator
from repro.serve import CostModelService
from repro.sql import parse_query
from repro.sql.ast import ColumnRef, ComparisonOperator, Predicate
from repro.util import LRUCache
from repro.workload import WorkloadRunner, make_benchmark_workload

from tests.serve.serve_stubs import LinearCostStub


# ----------------------------------------------------------------------
# Dispatch: the executor's and the simulator's operator tables
# ----------------------------------------------------------------------
#: Every concrete physical operator class ``repro.plans`` exports.
OPERATORS = tuple(
    getattr(repro.plans, name) for name in sorted(repro.plans.__all__)
    if isinstance(getattr(repro.plans, name), type)
    and issubclass(getattr(repro.plans, name), PlanNode)
    and getattr(repro.plans, name) is not PlanNode)

_JOIN = "SELECT COUNT(*) FROM title t, movie_info mi WHERE t.id = mi.movie_id"

#: ``(sql, planner options)`` whose plans hold every operator between
#: them on ``tiny_imdb``.
OPERATOR_QUERIES = (
    ("SELECT COUNT(*) FROM title t WHERE t.id < 50",
     PlannerOptions(enable_seqscan=False)),
    (_JOIN, PlannerOptions(enable_nestloop=False)),
    (_JOIN, PlannerOptions(enable_hashjoin=False)),
    ("SELECT t.kind_id, COUNT(*) FROM title t GROUP BY t.kind_id",
     PlannerOptions()),
)


class TestDispatchTables:
    def test_handlers_and_cost_models_dispatch_through_their_tables(
            self, tiny_imdb, monkeypatch):
        """An entry swapped into ``Executor._HANDLERS`` /
        ``RuntimeSimulator._MODELS`` is what the executor / simulator
        actually calls."""
        plan = plan_query(tiny_imdb, parse_query(
            "SELECT COUNT(*) FROM title t WHERE t.votes > 10"))
        scans = []

        def spy_handler(executor, node):
            scans.append(node)
            return Executor._seq_scan(executor, node)

        with monkeypatch.context() as patch:
            patch.setitem(Executor._HANDLERS, SeqScan, spy_handler)
            execute_plan(tiny_imdb, plan)
        assert len(scans) == 1

        with monkeypatch.context() as patch:
            patch.setitem(RuntimeSimulator._MODELS, SeqScan,
                          lambda sim, node: 123.0)
            runtime = RuntimeSimulator(tiny_imdb, noise_sigma=0.0) \
                .simulate(plan)
        assert runtime.seconds_for(scans[0]) == 123.0

    def test_both_tables_cover_exactly_the_plan_operators(self):
        assert set(Executor._HANDLERS) == set(OPERATORS)
        assert set(RuntimeSimulator._MODELS) == set(OPERATORS)

    @pytest.mark.parametrize("operator", OPERATORS,
                             ids=lambda operator: operator.__name__)
    def test_every_operator_is_executed_and_costed(self, operator,
                                                   tiny_imdb):
        """Each operator class dispatches to a handler that annotates its
        rows and to a cost model that prices it."""
        plans = [plan_query(tiny_imdb, parse_query(sql), options)
                 for sql, options in OPERATOR_QUERIES]
        plan = next(plan for plan in plans
                    if any(type(node) is operator for node in plan.nodes()))
        result = execute_plan(tiny_imdb, plan)
        runtime = RuntimeSimulator(tiny_imdb, noise_sigma=0.0).simulate(plan)
        assert result.root_rows == plan.root.actual_rows
        for node in plan.nodes():
            if type(node) is operator:
                assert node.actual_rows is not None
                seconds = runtime.seconds_for(node)
                assert np.isfinite(seconds) and seconds >= 0.0


# ----------------------------------------------------------------------
# LRUCache: the five owners
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def plans(tiny_imdb):
    planner = Planner(tiny_imdb)
    return [planner.plan(query) for query in
            make_benchmark_workload(tiny_imdb, "scale", 4, seed=23)]


def _build_side(bound, tiny_imdb, plans):
    cache = BuildSideCache(bound)

    def touch(index):
        if cache.get((index,)) is None:
            cache.put((index,), object())
    return cache, touch


def _compiled_filters(bound, tiny_imdb, plans):
    cache = CompiledFilterCache(bound)
    filters = (Predicate(ColumnRef("t", "x"), ComparisonOperator.EQ, 1.0),)
    return cache, lambda index: cache.get_or_compile((index, filters),
                                                     filters)


def _level_plans(bound, tiny_imdb, plans):
    cache = LevelPlanCache(bound)
    featurizer = ZeroShotFeaturizer(CardinalitySource.ESTIMATED)
    encoded = encode_graphs([featurizer.featurize(plan, tiny_imdb)
                             for plan in plans])
    return cache, lambda index: cache.level_plan(encoded[:index + 1])


def _service(bound, tiny_imdb, plans):
    service = CostModelService(LinearCostStub(), tiny_imdb,
                               cache_entries=bound)
    return service._cache, lambda index: service.warm([plans[index]])


def _cardinality_head(database):
    """A tiny fitted ``zero-shot-cardinality`` estimator on ``database``
    (eight executed queries, one epoch: about 20 ms)."""
    records = WorkloadRunner(database, seed=3).run(
        make_benchmark_workload(database, "scale", 8, seed=29))
    estimator = get_estimator(
        "zero-shot-cardinality",
        config=ZeroShotConfig(hidden_dim=8, cardinality_head=True))
    estimator.fit(records, database, TrainerConfig(epochs=1, batch_size=8))
    return estimator


def _learned_cardinality(bound, tiny_imdb, plans):
    learned = LearnedCardinalityEstimator(
        tiny_imdb, _cardinality_head(tiny_imdb), cached_queries=bound)
    queries = [parse_query(f"SELECT COUNT(*) FROM title t "
                           f"WHERE t.votes > {index}") for index in range(4)]
    return learned._cache, lambda index: learned.scan_rows(queries[index],
                                                           "t")


LRU_OWNERS = {
    "build-side": (_build_side, ValueError),
    "compiled-filters": (_compiled_filters, ExecutionError),
    "level-plans": (_level_plans, FeaturizationError),
    "service-encodes": (_service, ModelError),
    "learned-cardinality": (_learned_cardinality, ModelError),
}


@pytest.mark.parametrize("make, error", LRU_OWNERS.values(),
                         ids=LRU_OWNERS.keys())
class TestLRUContract:
    def test_is_the_shared_lru(self, make, error, tiny_imdb, plans):
        cache, _ = make(2, tiny_imdb, plans)
        assert isinstance(cache, LRUCache)

    def test_bound_respected_and_counted(self, make, error, tiny_imdb,
                                         plans):
        cache, touch = make(2, tiny_imdb, plans)
        for index in range(4):
            touch(index)
        assert len(cache) == 2
        assert (cache.hits, cache.misses, cache.evictions) == (0, 4, 2)
        touch(3)
        touch(2)
        assert (cache.hits, cache.misses, cache.evictions) == (2, 4, 2)

    def test_eviction_is_lru_not_fifo(self, make, error, tiny_imdb, plans):
        cache, touch = make(2, tiny_imdb, plans)
        touch(0)
        touch(1)
        touch(0)            # refresh 0: 1 is now least recently used
        touch(2)            # evicts 1, not 0
        assert (cache.hits, cache.misses) == (1, 3)
        touch(0)
        assert (cache.hits, cache.misses) == (2, 3)   # 0 survived
        touch(1)
        assert (cache.hits, cache.misses) == (2, 4)   # 1 was evicted

    def test_clear_drops_entries_and_keeps_counting(self, make, error,
                                                    tiny_imdb, plans):
        cache, touch = make(1, tiny_imdb, plans)
        touch(0)
        touch(0)
        touch(1)
        cache.clear()
        assert (len(cache), cache.hits, cache.misses, cache.evictions) == \
            (0, 1, 2, 1)
        touch(0)
        assert (cache.hits, cache.misses, cache.evictions) == (1, 3, 1)
        assert cache.hit_rate == 0.25

    def test_negative_bound_rejected_in_the_owners_error_class(
            self, make, error, tiny_imdb, plans):
        with pytest.raises(error):
            make(-1, tiny_imdb, plans)


class TestLRUClass:
    def test_zero_bound_stores_nothing_and_counts_no_eviction(self):
        cache = LRUCache(0)
        cache.put("a", 1)
        assert cache.get("a") is None
        assert (len(cache), cache.evictions) == (0, 0)

    def test_put_refreshes_existing_keys_and_evicts_the_lru(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 3)                # overwrite: a is now MRU
        assert cache.evictions == 0
        cache.put("c", 4)                # evicts b
        assert cache.evictions == 1
        assert cache.get("b") is None
        assert cache.get("a") == 3

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError):
            LRUCache(-1)


# ----------------------------------------------------------------------
# Levels: zero-shot graphs and E2E trees
# ----------------------------------------------------------------------
#: shape -> (edges as (child, parent), level per node)
LEVEL_SHAPES = {
    "chain": ([(0, 1), (1, 2), (2, 3)], [0, 1, 2, 3]),
    "bushy tree": ([(1, 0), (2, 0), (3, 1), (4, 1), (5, 2), (6, 2)],
                   [2, 1, 1, 0, 0, 0, 0]),
    "dag with a shared child": ([(0, 1), (0, 2), (1, 3), (2, 3), (0, 3)],
                                [0, 1, 1, 2]),
}


@pytest.mark.parametrize("shape", sorted(LEVEL_SHAPES))
def test_graphs_and_trees_are_levelled_by_one_function(shape):
    edges, expected = LEVEL_SHAPES[shape]
    assert repro.models.e2e.node_levels is repro.featurize.graph.node_levels

    graph = PlanGraph()
    for _ in expected:
        graph.add_node("plan_op", np.zeros(FEATURE_DIMS["plan_op"]))
    for child, parent in edges:
        graph.add_edge(child, parent)
    graph.root = expected.index(max(expected))
    assert graph.levels() == expected
    assert encode_graph(graph).levels.tolist() == expected

    tree = E2ETreeSample(features=np.zeros((len(expected), 3)), edges=edges,
                         root=graph.root)
    encoded = repro.models.e2e._encode_tree(tree)
    assert encoded.levels.tolist() == expected
    assert encoded.edge_parent_ranks.tolist() == \
        encode_graph(graph).edge_parent_ranks.tolist()


def test_a_cycle_is_rejected_wherever_levels_are_taken():
    edges = [(0, 1), (1, 2), (2, 0)]
    graph = PlanGraph()
    for _ in range(3):
        graph.add_node("plan_op", np.zeros(FEATURE_DIMS["plan_op"]))
    graph.edges.extend(edges)
    tree = E2ETreeSample(features=np.zeros((3, 3)), edges=edges)
    with pytest.raises(FeaturizationError, match="cycle"):
        graph.levels()
    with pytest.raises(FeaturizationError, match="cycle"):
        repro.models.e2e._encode_tree(tree)
