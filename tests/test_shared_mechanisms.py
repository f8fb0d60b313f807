"""One contract per shared mechanism (``repro.util``).

Every cache in the library is a :class:`repro.util.LRUCache` and every
``register_*`` function delegates to a :class:`repro.util.Registry`, so
the behaviour each owner promises is checked once, parametrized over
the owners, instead of once per owner in its own words.  The same goes
for levelling a plan: zero-shot graphs and E2E trees are levelled by
one function.
"""

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np
import pytest

from repro.engine import (
    BuildSideCache,
    Executor,
    execute_plan,
    join_kernel_for,
    register_join_kernel,
    register_operator_handler,
    registered_join_kernels,
)
from repro.engine.compiled_filters import CompiledFilterCache
from repro.errors import (
    ExecutionError,
    FeaturizationError,
    ModelError,
    PlannerError,
)
import repro.featurize.graph
import repro.models.e2e
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
from repro.models.api import (
    available_estimators,
    get_estimator,
    register_estimator,
)
from repro.optimizer import Planner, plan_query
from repro.optimizer.learned_cardinality import LearnedCardinalityEstimator
from repro.optimizer.rewrite import (
    available_rewrite_rules,
    default_rule_registry,
    register_rewrite_rule,
    unregister_rewrite_rule,
)
from repro.plans import HashJoin, PlanNode, SeqScan
from repro.runtime import (
    RuntimeSimulator,
    SystemParameters,
    available_system_configs,
    get_system_config,
    register_cost_model,
    register_system_config,
)
from repro.serve import CostModelService
from repro.sql import parse_query
from repro.sql.ast import ColumnRef, ComparisonOperator, Predicate
from repro.util import LRUCache, Registry
from repro.workload import make_benchmark_workload

from tests.serve.serve_stubs import LinearCostStub


# ----------------------------------------------------------------------
# Registry: the six public wrapper sets
# ----------------------------------------------------------------------
class _UnregisteredOperator(PlanNode):
    """Inherits no binding: ``PlanNode`` itself is never registered."""


class _StubRule:
    description = "contract-test stub"

    def __init__(self, name):
        self.name = name

    def apply(self, root, context):
        return None


class _RuleWithoutApply:
    def __init__(self, name):
        self.name = name


def _register_rule(name, rule):
    if rule is None:
        return unregister_rewrite_rule(name)
    return register_rewrite_rule(rule, replace=True)


@dataclass
class RegistryCase:
    error: type[Exception]
    register: Callable[[Any, Any], Any]
    lookup: Callable[[Any], Any]
    available: Callable[[], Any]
    known: Any       #: a key with a built-in binding
    fresh: Any       #: a valid key nothing is bound to
    bad_key: Any
    value: Callable[[Any], Any]      #: a valid value for a key
    bad_value: Callable[[Any], Any]  #: a rejected value for a key


def _callable_value(key):
    return lambda *args, **kwargs: None


REGISTRIES = {
    "join-kernels": RegistryCase(
        ExecutionError, register_join_kernel, join_kernel_for,
        registered_join_kernels, HashJoin, _UnregisteredOperator,
        int, _callable_value, lambda key: "not callable"),
    "operator-handlers": RegistryCase(
        ExecutionError, register_operator_handler, Executor._HANDLERS.get,
        Executor._HANDLERS.available, SeqScan, _UnregisteredOperator,
        int, _callable_value, lambda key: "not callable"),
    "cost-models": RegistryCase(
        ExecutionError, register_cost_model, RuntimeSimulator._MODELS.get,
        RuntimeSimulator._MODELS.available, SeqScan, _UnregisteredOperator,
        int, _callable_value, lambda key: "not callable"),
    "estimators": RegistryCase(
        ModelError, register_estimator, get_estimator,
        available_estimators, "zero-shot", "contract-test-estimator",
        "", _callable_value, lambda key: object()),
    "system-configs": RegistryCase(
        ExecutionError, register_system_config, get_system_config,
        available_system_configs, "default", "contract-test-machine",
        "", lambda key: SystemParameters.slow_disk(),
        lambda key: {"cpu_tuple_s": 1.0}),
    "rewrite-rules": RegistryCase(
        PlannerError, _register_rule, default_rule_registry().get,
        available_rewrite_rules, "filter-merge", "contract-test-rule",
        "", _StubRule, _RuleWithoutApply),
}


def _label(key):
    return key.__name__ if isinstance(key, type) else key


@pytest.mark.parametrize("case", REGISTRIES.values(), ids=REGISTRIES.keys())
class TestRegistryContract:
    def test_unknown_key_lists_the_available_ones(self, case):
        with pytest.raises(case.error) as excinfo:
            case.lookup(case.fresh)
        message = str(excinfo.value)
        assert _label(case.fresh) in message
        for key in case.available():
            assert _label(key) in message

    def test_register_returns_previous_and_passing_it_back_restores(
            self, case):
        order = tuple(case.available())
        replacement = case.value(case.known)
        builtin = case.register(case.known, replacement)
        try:
            assert builtin is not None
            assert case.register(case.known, builtin) is replacement
        finally:
            case.register(case.known, builtin)
        assert case.register(case.known, builtin) is builtin
        assert tuple(case.available()) == order

    def test_none_unregisters(self, case):
        value = case.value(case.fresh)
        assert case.register(case.fresh, value) is None
        try:
            assert case.fresh in case.available()
        finally:
            assert case.register(case.fresh, None) is value
        assert case.fresh not in case.available()
        with pytest.raises(case.error):
            case.lookup(case.fresh)
        assert case.register(case.fresh, None) is None  # idempotent

    def test_bad_value_and_bad_key_rejected_eagerly(self, case):
        before = tuple(case.available())
        with pytest.raises(case.error):
            case.register(case.fresh, case.bad_value(case.fresh))
        with pytest.raises(case.error):
            case.register(case.bad_key, case.value(case.bad_key))
        assert tuple(case.available()) == before


class TestRegistryClass:
    def test_class_keys_resolve_through_the_mro(self):
        class FancyHashJoin(HashJoin):
            pass

        registry = Registry("thing", ExecutionError, key_base=PlanNode,
                            defaults={HashJoin: len})
        assert registry.get(FancyHashJoin) is len
        registry.register(FancyHashJoin, max)
        assert registry.get(FancyHashJoin) is max
        assert registry.get(HashJoin) is len

    def test_reset_restores_exactly_the_default_set(self):
        registry = Registry("thing", ModelError, defaults={"a": len})
        registry.register("b", max)
        registry.register("c", min, default=True)
        registry.register("a", None)
        registry.reset()
        assert registry.snapshot() == {"a": len, "c": min}

    def test_handlers_and_cost_models_dispatch_through_the_registry(
            self, tiny_imdb):
        """The two registries with no tests of their own: an override
        is what the executor / simulator actually calls."""
        plan = plan_query(tiny_imdb, parse_query(
            "SELECT COUNT(*) FROM title t WHERE t.votes > 10"))
        scans = []

        def spy_handler(executor, node):
            scans.append(node)
            return Executor._seq_scan(executor, node)

        previous = register_operator_handler(SeqScan, spy_handler)
        try:
            execute_plan(tiny_imdb, plan)
        finally:
            register_operator_handler(SeqScan, previous)
        assert len(scans) == 1

        previous = register_cost_model(SeqScan, lambda sim, node: 123.0)
        try:
            runtime = RuntimeSimulator(tiny_imdb, noise_sigma=0.0) \
                .simulate(plan)
        finally:
            register_cost_model(SeqScan, previous)
        assert runtime.seconds_for(scans[0]) == 123.0


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


class _NeverCalledModel:
    def predict_cardinalities(self, plans, database):
        raise AssertionError("fallback_only never consults the model")


def _learned_cardinality(bound, tiny_imdb, plans):
    learned = LearnedCardinalityEstimator(
        tiny_imdb, _NeverCalledModel(), fallback_only=True,
        cached_queries=bound)
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

    def test_clear_drops_entries_and_resets_counters(self, make, error,
                                                     tiny_imdb, plans):
        cache, touch = make(1, tiny_imdb, plans)
        touch(0)
        touch(0)
        touch(1)
        cache.clear()
        assert (len(cache), cache.hits, cache.misses, cache.evictions) == \
            (0, 0, 0, 0)
        touch(0)
        assert (cache.hits, cache.misses) == (0, 1)

    def test_negative_bound_rejected_in_the_owners_error_class(
            self, make, error, tiny_imdb, plans):
        with pytest.raises(error):
            make(-1, tiny_imdb, plans)


class TestLRUClass:
    def test_zero_bound_stores_nothing_and_counts_no_eviction(self):
        cache = LRUCache(0)
        assert cache.put("a", 1) == 0
        assert cache.get("a") is None
        assert (len(cache), cache.evictions) == (0, 0)

    def test_put_reports_evictions_and_refreshes_existing_keys(self):
        cache = LRUCache(2)
        assert cache.put("a", 1) == 0
        assert cache.put("b", 2) == 0
        assert cache.put("a", 3) == 0    # overwrite: a is now MRU
        assert cache.put("c", 4) == 1    # evicts b
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
