"""The batched, caching prediction service (``repro.serve``)."""

import gc
import itertools
import sys
import threading
import weakref

import numpy as np
import pytest
from serve_stubs import WAIT, LinearCostStub, ShortAnswerStub

from repro.errors import ModelError
from repro.models import TrainerConfig, get_estimator
from repro.optimizer import Planner
from repro.serve import CostModelService
from repro.sql import parse_query
from repro.workload import WorkloadRunner, make_benchmark_workload


@pytest.fixture(scope="module")
def executed(tiny_imdb):
    runner = WorkloadRunner(tiny_imdb, seed=11)
    return runner.run(make_benchmark_workload(tiny_imdb, "scale", 24,
                                              seed=11))


@pytest.fixture(scope="module")
def estimator(tiny_imdb, executed):
    trainer = TrainerConfig(epochs=6, batch_size=16,
                            early_stopping_patience=6, seed=0)
    return get_estimator("zero-shot").fit(executed, tiny_imdb, trainer)


@pytest.fixture()
def service(estimator, tiny_imdb):
    return CostModelService(estimator, tiny_imdb, max_batch_size=8,
                            cache_entries=64)


class TestValidation:
    def test_unfitted_estimator_rejected(self, tiny_imdb):
        with pytest.raises(ModelError, match="before fit"):
            CostModelService(get_estimator("zero-shot"), tiny_imdb)

    def test_core_model_rejected(self, tiny_imdb, estimator):
        with pytest.raises(ModelError, match="CostEstimator"):
            CostModelService(estimator.model, tiny_imdb)

    def test_bad_parameters_rejected(self, tiny_imdb, estimator):
        with pytest.raises(ModelError):
            CostModelService(estimator, tiny_imdb, max_batch_size=0)
        with pytest.raises(ModelError):
            CostModelService(estimator, tiny_imdb, cache_entries=-1)


class TestPredictions:
    def test_bit_identical_to_estimator(self, service, estimator,
                                        tiny_imdb, executed):
        """Micro-batching + caching must not change a single bit —
        cold cache, warm cache, or direct estimator call."""
        plans = [r.plan for r in executed]
        reference = estimator.predict_runtime(plans, tiny_imdb)
        cold = service.predict_runtime(plans)
        warm = service.predict_runtime(plans)
        np.testing.assert_array_equal(cold, reference)
        np.testing.assert_array_equal(warm, reference)

    def test_bit_identical_to_per_plan_calls(self, service, estimator,
                                             tiny_imdb, executed):
        plans = [r.plan for r in executed[:10]]
        per_plan = np.array([estimator.predict_runtime([p], tiny_imdb)[0]
                             for p in plans])
        np.testing.assert_array_equal(service.predict_runtime(plans),
                                      per_plan)

    def test_mixed_inputs(self, service, tiny_imdb, executed):
        sql = "SELECT COUNT(*) FROM title t WHERE t.production_year > 1990"
        items = [executed[0].plan, sql, parse_query(sql)]
        out = service.predict_runtime(items)
        assert out.shape == (3,)
        assert (out > 0).all()
        # SQL text and its parsed form plan identically.
        np.testing.assert_array_equal(out[1], out[2])

    def test_empty_batch(self, service):
        assert service.predict_runtime([]).shape == (0,)

    def test_log_runtime_consistent(self, service, executed):
        plans = [r.plan for r in executed[:5]]
        np.testing.assert_array_equal(
            np.exp(service.predict_log_runtime(plans)),
            service.predict_runtime(plans))


class TestBatchingAndCache:
    def test_micro_batch_count(self, service, executed):
        plans = [r.plan for r in executed[:20]]
        service.predict_runtime(plans)
        assert service.stats.batches == 3  # ceil(20 / 8)
        assert service.stats.requests == 20

    def test_cache_hits_on_repeat(self, service, executed):
        plans = [r.plan for r in executed[:6]]
        service.predict_runtime(plans)
        assert service.stats.cache_misses == 6
        assert service.stats.cache_hits == 0
        service.predict_runtime(plans)
        assert service.stats.cache_misses == 6
        assert service.stats.cache_hits == 6
        assert service.stats.hit_rate == 0.5

    def test_sql_requests_cached_by_text(self, service):
        sql = "SELECT COUNT(*) FROM title t WHERE t.votes > 1000"
        first = service.predict_runtime([sql])
        second = service.predict_runtime([sql])
        np.testing.assert_array_equal(first, second)
        assert service.stats.cache_hits == 1

    def test_lru_bound_and_evictions(self, estimator, tiny_imdb, executed):
        service = CostModelService(estimator, tiny_imdb, max_batch_size=8,
                                   cache_entries=4)
        plans = [r.plan for r in executed[:10]]
        service.predict_runtime(plans)
        assert len(service._cache) == 4
        assert service.stats.cache_evictions == 6

    def test_repeats_in_a_chunk_are_forwarded_once(self, service,
                                                  estimator, executed):
        """A plan object or SQL text asked for twice in one micro-batch
        is one forward row; every copy gets its bit-identical answer."""
        sql = "SELECT COUNT(*) FROM title t WHERE t.votes > 1000"
        plans = [r.plan for r in executed[:3]]
        items = [plans[0], sql, plans[1], plans[0], sql, plans[2], plans[0]]
        reference = service.predict_runtime([plans[0], sql] + plans[1:])
        forwarded = []
        original = estimator.predict_encoded

        def spy(encoded):
            forwarded.append(len(encoded))
            return original(encoded)

        estimator.predict_encoded = spy
        try:
            served = service.predict_runtime(items)
        finally:
            del estimator.predict_encoded
        assert forwarded == [4]
        np.testing.assert_array_equal(
            served, reference[[0, 1, 2, 0, 1, 3, 0]])
        assert service.stats.requests == 11
        assert service.stats.batches == 2

    def test_short_answer_for_the_distinct_requests(self, tiny_imdb,
                                                    serve_plans):
        """With repeats in a chunk the estimator answers its distinct
        requests; an answer of another length is a ModelError naming
        both sizes, as the server reports one without repeats."""
        service = CostModelService(ShortAnswerStub(missing=1), tiny_imdb)
        plans = serve_plans[:3]
        with pytest.raises(ModelError,
                           match="2 predictions for 3 distinct requests"):
            service.predict_runtime(plans + plans[:1])

    def test_cache_disabled(self, estimator, tiny_imdb, executed):
        service = CostModelService(estimator, tiny_imdb, cache_entries=0)
        plans = [r.plan for r in executed[:3]]
        service.predict_runtime(plans)
        service.predict_runtime(plans)
        assert len(service._cache) == 0
        assert service.stats.cache_hits == 0
        assert service.stats.cache_misses == 6

    def test_warm_and_clear(self, service, executed):
        plans = [r.plan for r in executed[:5]]
        assert service.warm(plans) == 5
        assert service.warm(plans) == 0
        service.clear_cache()
        assert len(service._cache) == 0
        assert service.warm(plans) == 5


class TestCacheRegressions:
    """LRU regression suite: eviction order and bound, ``warm()`` hit
    accounting, and the ``_CacheEntry.source`` id-pinning guarantee.

    Runs on the closed-form stub — the cache is estimator-independent
    and these must stay cheap enough to run on every change.
    """

    def test_eviction_is_lru_not_fifo(self, tiny_imdb, serve_plans):
        service = CostModelService(LinearCostStub(), tiny_imdb,
                                   cache_entries=2)
        a, b, c = serve_plans[:3]
        service.predict_runtime([a, b])
        service.predict_runtime([a])     # touch a → b becomes the LRU
        service.predict_runtime([c])     # evicts b, not a
        assert service.stats.cache_evictions == 1
        hits = service.stats.cache_hits
        service.predict_runtime([a])
        assert service.stats.cache_hits == hits + 1      # a survived
        misses = service.stats.cache_misses
        service.predict_runtime([b])
        assert service.stats.cache_misses == misses + 1  # b was evicted

    def test_eviction_at_bound_of_one(self, tiny_imdb, serve_plans):
        service = CostModelService(LinearCostStub(), tiny_imdb,
                                   cache_entries=1)
        for plan in serve_plans[:4]:
            service.predict_runtime([plan])
        assert len(service._cache) == 1
        assert service.stats.cache_evictions == 3
        # The survivor is the most recently used entry.
        service.predict_runtime([serve_plans[3]])
        assert service.stats.cache_hits == 1

    def test_warm_hit_accounting(self, tiny_imdb, serve_plans):
        service = CostModelService(LinearCostStub(), tiny_imdb,
                                   cache_entries=64)
        plans = serve_plans[:5]
        assert service.warm(plans) == 5
        assert service.stats.cache_misses == 5
        assert service.stats.cache_hits == 0
        # Re-warming is pure hits and reports zero fresh encodes.
        assert service.warm(plans) == 0
        assert service.stats.cache_hits == 5
        # warm() never issues model forwards or counts requests.
        assert service.stats.requests == 0
        assert service.stats.batches == 0
        service.predict_runtime(plans)
        assert service.stats.cache_hits == 10
        assert service.stats.requests == 5

    def test_counters_are_exact_when_an_item_fails_to_encode(
            self, tiny_imdb, serve_plans):
        """The cache counts each lookup as it happens, so a request that
        fails midway leaves its lookups up to and including the failing
        one counted, and no request, no batch."""
        service = CostModelService(LinearCostStub(), tiny_imdb,
                                   cache_entries=2)
        a, b, c = serve_plans[:3]
        service.warm([a])
        with pytest.raises(Exception):
            service.predict_runtime([a, b, "SELECT nonsense FROM", c])
        stats = service.stats
        assert (stats.cache_hits, stats.cache_misses) == (1, 3)
        assert (stats.requests, stats.batches) == (0, 0)
        assert stats.cache_evictions == 0
        with pytest.raises(Exception):
            service.warm([c, "SELECT nonsense FROM"])
        assert (stats.cache_hits, stats.cache_misses) == (1, 5)
        assert stats.cache_evictions == 1   # c pushed a out
        assert stats.requests == 0

    def test_cache_events_make_no_stats_update(self, tiny_imdb,
                                               serve_plans):
        """The encode cache is the one counter of its events: a call
        updates ``ServiceStats`` once for its requests and once per
        forward, never for a hit, miss or eviction."""
        service = CostModelService(LinearCostStub(), tiny_imdb,
                                   max_batch_size=4, cache_entries=3)
        updates = []
        original = service.stats.add

        def counting_add(**deltas):
            updates.append(deltas)
            original(**deltas)

        service.stats.add = counting_add
        plans = list(serve_plans[:6])
        service.predict_runtime(plans)        # 6 misses, 3 evictions
        assert updates == [{"requests": 6}, {"batches": 1}, {"batches": 1}]
        service.warm(plans[-3:])              # 3 hits
        assert len(updates) == 3
        stats = service.stats
        assert (stats.requests, stats.batches) == (6, 2)
        assert (stats.cache_hits, stats.cache_misses,
                stats.cache_evictions) == (3, 6, 3)

    def test_stats_total_both_rounds_across_clear_cache(self, tiny_imdb,
                                                        serve_plans):
        """What ``bench``'s cold rounds read: the cache is cleared
        between rounds and the stats afterwards are the rounds' totals,
        because ``clear_cache()`` drops entries, not counts."""
        service = CostModelService(LinearCostStub(), tiny_imdb,
                                   cache_entries=2)
        a, b, c = serve_plans[:3]
        service.predict_runtime([a, b, a, c])  # 1 hit, 3 misses, b evicted
        service.clear_cache()
        assert len(service._cache) == 0
        service.predict_runtime([a, b, a, c])
        stats = service.stats
        assert (stats.cache_hits, stats.cache_misses,
                stats.cache_evictions) == (2, 6, 2)
        assert stats.hit_rate == 0.25
        assert stats.requests == 8

    def test_warm_counts_its_own_encodes_beside_a_predictor(
            self, tiny_imdb):
        """``warm()`` returns its own fresh encodes while another thread
        misses the same cache, so a delta of the shared miss counter
        would over-count."""
        service = CostModelService(LinearCostStub(), tiny_imdb,
                                   cache_entries=100_000)
        planner = Planner(tiny_imdb)
        queries = make_benchmark_workload(tiny_imdb, "scale", 5, seed=97)
        pools = [[planner.plan(query) for query in queries]
                 for _ in range(20)]
        started, done = threading.Event(), threading.Event()
        errors = []

        def predictor():
            try:
                for cutoff in itertools.count():
                    service.predict_runtime([
                        f"SELECT COUNT(*) FROM title t "
                        f"WHERE t.production_year > {cutoff}"])
                    started.set()
                    if done.is_set():
                        return
            except BaseException as error:  # noqa: BLE001 - reported below
                errors.append(error)
                started.set()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        thread = threading.Thread(target=predictor)
        try:
            thread.start()
            assert started.wait(WAIT)
            fresh = [(service.warm(pool), service.warm(pool))
                     for pool in pools]
        finally:
            done.set()
            thread.join(WAIT)
            sys.setswitchinterval(interval)
        assert errors == []
        assert fresh == [(5, 0)] * len(pools)
        # Beside warm()'s 100 fresh encodes, the predictor's texts missed.
        assert service.stats.cache_misses > 5 * len(pools) + 1

    def test_cache_entry_source_pins_plan_identity(self, tiny_imdb):
        """A cached plan freed by its caller must stay alive while its
        encoding is cached: identity keys (``("plan", id)``) would
        silently alias if the id were recycled by a new plan object."""
        planner = Planner(tiny_imdb)
        queries = make_benchmark_workload(tiny_imdb, "scale", 2, seed=91)
        plan = planner.plan(queries[0])
        pinned_id = id(plan)
        service = CostModelService(LinearCostStub(), tiny_imdb,
                                   cache_entries=8)
        service.warm([plan])
        ref = weakref.ref(plan)
        del plan
        gc.collect()
        # Still pinned by _CacheEntry.source...
        assert ref() is not None
        # ...so no newly allocated plan can take the cached id and
        # alias the entry: the id is provably a cache miss for it.
        other = planner.plan(queries[1])
        assert id(other) != pinned_id
        service.predict_runtime([other])
        assert service.stats.cache_hits == 0
        # The pin is released exactly when the entry is dropped.
        service.clear_cache()
        gc.collect()
        assert ref() is None

    def test_eviction_releases_the_pin(self, tiny_imdb, serve_plans):
        service = CostModelService(LinearCostStub(), tiny_imdb,
                                   cache_entries=1)
        planner = Planner(tiny_imdb)
        plan = planner.plan(make_benchmark_workload(tiny_imdb, "scale", 1,
                                                    seed=93)[0])
        service.warm([plan])
        ref = weakref.ref(plan)
        del plan
        gc.collect()
        assert ref() is not None
        service.warm([serve_plans[0]])   # evicts the pinned entry
        gc.collect()
        assert ref() is None


class TestOtherEstimators:
    @pytest.mark.parametrize("name", ("flat", "mscn", "e2e",
                                      "scaled-optimizer-cost"))
    def test_service_serves_every_registered_estimator(self, name,
                                                       tiny_imdb,
                                                       executed):
        trainer = TrainerConfig(epochs=3, batch_size=16,
                                early_stopping_patience=3, seed=0)
        estimator = get_estimator(name).fit(executed, tiny_imdb, trainer)
        service = CostModelService(estimator, tiny_imdb, max_batch_size=7)
        plans = [r.plan for r in executed[:9]]
        np.testing.assert_array_equal(
            service.predict_runtime(plans),
            estimator.predict_runtime(plans, tiny_imdb))
