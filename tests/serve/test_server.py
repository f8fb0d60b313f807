"""The concurrent multi-tenant front end (``repro.serve.server``).

Concurrency/SLO suite: bit-identity under real thread interleavings,
thread-safe stats accounting, fault isolation, admission control, and
the hot-swap protocol.  Every blocking wait carries an explicit
timeout, so a deadlocked server fails a test instead of hanging the
run; all randomized interleavings are seeded.  Run with
``pytest -m concurrency`` (CI adds a hard wall-clock timeout on top).
"""

import ctypes
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time

import numpy as np
import pytest
from serve_stubs import (
    WAIT,
    GatedPoisonStub,
    GatedStub,
    LinearCostStub,
    PoisonStub,
    ShortAnswerStub,
    WideAnswerStub,
)

from repro.errors import ModelError, Overloaded, ServeError
from repro.models import ESTIMATORS
from repro.serve import CostModelService, PredictionServer, ServiceStats
from repro.serve.server import _share_the_main_arena
from repro.serve.service import LATENCY_WINDOW
from repro.util import LRUCache

pytestmark = pytest.mark.concurrency


def on_glibc() -> bool:
    try:
        return sys.platform == "linux" and bool(
            os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


def make_service(tiny_imdb, scale=1.0, **kwargs):
    kwargs.setdefault("max_batch_size", 8)
    return CostModelService(LinearCostStub(scale), tiny_imdb, **kwargs)


# ----------------------------------------------------------------------
# Validation and lifecycle
# ----------------------------------------------------------------------
class TestValidationAndLifecycle:
    def test_requires_service(self):
        with pytest.raises(ServeError, match="CostModelService"):
            PredictionServer(LinearCostStub())

    @pytest.mark.parametrize("option, value", [
        ("max_batch_size", 0),
        ("max_wait_ms", -1.0),
        ("max_queue_depth", 0),
        # NaN passes ``< 0``, and the batcher then spins until a full
        # batch queues; an infinite wait kills the batcher with an
        # ``OverflowError`` from ``Condition.wait``.
        ("max_wait_ms", float("nan")),
        ("max_wait_ms", float("inf")),
    ], ids=["batch-size-0", "negative-wait", "queue-depth-0", "nan", "inf"])
    def test_bad_parameters_rejected(self, tiny_imdb, option, value):
        with pytest.raises(ServeError, match=option):
            PredictionServer(make_service(tiny_imdb), **{option: value})

    def test_close_drains_and_is_idempotent(self, tiny_imdb, serve_plans):
        server = PredictionServer(make_service(tiny_imdb),
                                  max_wait_ms=200.0, max_batch_size=64)
        pending = [server.submit(p) for p in serve_plans]
        # Close before the 200 ms flush deadline: the drain must answer
        # every admitted request without waiting for the batch to fill.
        server.close()
        for p in pending:
            assert p.result(WAIT).runtime > 0
        assert server.pending == 0
        server.close()  # idempotent
        with pytest.raises(ServeError, match="closed"):
            server.submit(serve_plans[0])
        with pytest.raises(ServeError, match="closed"):
            server.swap(LinearCostStub(2.0))

    def test_result_timeout_raises_serve_error(self, tiny_imdb,
                                               serve_plans):
        stub = GatedStub()
        service = CostModelService(stub, tiny_imdb, max_batch_size=8)
        with PredictionServer(service, max_wait_ms=0.0) as server:
            pending = server.submit(serve_plans[0])
            assert stub.entered.wait(WAIT)
            with pytest.raises(ServeError, match="not answered"):
                pending.result(timeout=0.02)
            assert not pending.done()
            stub.release.set()
            assert pending.result(WAIT).runtime > 0

    @pytest.mark.parametrize("timeout", [math.inf,
                                         2 * threading.TIMEOUT_MAX],
                             ids=["inf", "beyond_timeout_max"])
    def test_unbounded_result_timeout_waits(self, tiny_imdb, serve_plans,
                                            timeout):
        """``inf``, and a finite timeout no lock can wait, wait for the
        answer without bound: for a request still in its batch, for one
        already answered and through ``predict_runtime``."""
        stub = GatedStub()
        service = CostModelService(stub, tiny_imdb, max_batch_size=8)
        with PredictionServer(service, max_wait_ms=0.0) as server:
            pending = server.submit(serve_plans[0])
            assert stub.entered.wait(WAIT)
            releaser = threading.Timer(0.05, stub.release.set)
            releaser.start()
            try:
                answered = pending.result(timeout)
            finally:
                releaser.join()
            assert pending.result(timeout) is answered
            assert server.predict_runtime(serve_plans[1],
                                          timeout=timeout).runtime > 0

    def test_nan_result_timeout_is_refused(self, tiny_imdb, serve_plans):
        service = CostModelService(LinearCostStub(), tiny_imdb)
        with PredictionServer(service, max_wait_ms=0.0) as server:
            pending = server.submit(serve_plans[0])
            assert pending.result(WAIT).runtime > 0
            with pytest.raises(ServeError, match="nan"):
                pending.result(float("nan"))
            with pytest.raises(ServeError, match="nan"):
                server.predict_runtime(serve_plans[0], timeout=float("nan"))


# ----------------------------------------------------------------------
# Satellite 1: concurrency bit-identity + thread-safe accounting
# ----------------------------------------------------------------------
class TestConcurrencyBitIdentity:
    N_CLIENTS = 8
    ROUNDS = 5

    def test_interleaved_tenants_bit_identical(self, tiny_imdb,
                                               serve_plans):
        """N threads issue interleaved mixed-tenant requests (plans and
        SQL); every response must equal the serial single-caller
        ``CostModelService.predict_runtime`` result bit for bit, and
        the aggregate request counter must equal the sum of per-client
        counts."""
        sql = ("SELECT COUNT(*) FROM title t "
               "WHERE t.production_year > 1990")
        items = list(serve_plans) + [sql]
        reference = CostModelService(
            LinearCostStub(), tiny_imdb).predict_runtime(items)
        expected = {id(item): reference[i] for i, item in enumerate(items)}

        service = make_service(tiny_imdb)
        failures = []
        counts = {}
        with PredictionServer(service, max_wait_ms=1.0) as server:
            barrier = threading.Barrier(self.N_CLIENTS)

            def client(cid):
                rng = np.random.default_rng(cid)
                barrier.wait(WAIT)
                served = 0
                for _ in range(self.ROUNDS):
                    for index in rng.permutation(len(items)):
                        item = items[index]
                        response = server.predict_runtime(
                            item, tenant=f"tenant-{cid}", timeout=WAIT)
                        if response.runtime != expected[id(item)]:
                            failures.append((cid, index, response.runtime))
                        if response.tenant != f"tenant-{cid}":
                            failures.append((cid, "tenant", response.tenant))
                        served += 1
                counts[cid] = served

            threads = [threading.Thread(target=client, args=(cid,))
                       for cid in range(self.N_CLIENTS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(WAIT)
            assert not any(t.is_alive() for t in threads)

            assert not failures
            total = self.N_CLIENTS * self.ROUNDS * len(items)
            assert sum(counts.values()) == total
            # The data race a bare `+=` would lose: aggregate counters
            # must equal the sum of per-client counts exactly.
            assert server.stats.requests == total
            assert server.stats.failures == 0
            assert server.stats.rejected == 0
            assert service.stats.requests == total
            # The service's encode cache counts every lookup once; the
            # server has no cache and reads zero.
            assert service.stats.cache_hits + service.stats.cache_misses \
                == total
            assert server.stats.cache_hits + server.stats.cache_misses == 0
            # Cross-client coalescing actually happened: far fewer
            # forwards than requests once every item is cache-warm.
            assert server.stats.batches < total
            # One latency per answered request.
            assert len(server.stats._latencies) == min(total, LATENCY_WINDOW)

    def test_service_stats_add_is_thread_safe(self):
        """Hammer one ServiceStats from many threads: increments must
        never be lost (this is the regression for the bare `+=` race)."""
        stats = ServiceStats()
        threads = 16
        per_thread = 5_000
        barrier = threading.Barrier(threads)

        def hammer():
            barrier.wait(WAIT)
            for _ in range(per_thread):
                stats.add(requests=1, batches=2)
                stats.observe_latencies((0.002, 0.003))

        workers = [threading.Thread(target=hammer) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(WAIT)
        assert stats.requests == threads * per_thread
        assert stats.batches == 2 * threads * per_thread
        assert len(stats._latencies) == LATENCY_WINDOW

    def test_hit_rate_never_mixes_two_updates(self):
        """The encode cache moves its counters under its own lock; a
        ``hit_rate`` read outside it, during an update, would see the
        new hits beside the old misses (here 4 / 5 instead of 4 / 10).
        It waits for the update to finish."""
        cache = LRUCache(1)
        cache.hits, cache.misses = 1, 1
        stats = ServiceStats(cache=cache)
        read = []
        returned = threading.Event()

        def reader():
            read.append(stats.hit_rate)
            returned.set()

        thread = threading.Thread(target=reader)
        with cache._lock:
            # The first half of an update of both counters.
            cache.hits += 3
            thread.start()
            assert not returned.wait(0.1)
            cache.misses += 5
        thread.join(WAIT)
        assert read == [0.4]

    def test_batch_latencies_are_observed_exactly(self):
        """Every latency of a batch is kept: nothing lost below the
        window, the oldest dropped beyond it."""
        stats = ServiceStats()
        stats.observe_latencies(value / 1000.0 for value in range(1, 101))
        assert list(stats._latencies) == [value / 1000.0
                                          for value in range(1, 101)]
        stats.observe_latencies([1.0] * LATENCY_WINDOW)
        assert list(stats._latencies) == [1.0] * LATENCY_WINDOW
        assert stats.latency_p99 == 1.0

    def test_clear_cache_races_a_warm_predictor(self, tiny_imdb,
                                                serve_plans):
        """One thread predicts on a warm service a thousand times while
        another loops ``clear_cache()``.  The encode cache's lookup and
        move-to-front are one locked step, so a clear landing between
        them cannot raise ``KeyError`` on the predicting thread (it used
        to, and failed that batch)."""
        service = make_service(tiny_imdb, cache_entries=64)
        plans = list(serve_plans)
        reference = service.predict_runtime(plans)  # also warms
        errors = []
        done = threading.Event()

        def predictor():
            try:
                for _ in range(1_000):
                    np.testing.assert_array_equal(
                        service.predict_runtime(plans), reference)
            except BaseException as error:  # noqa: BLE001 - reported below
                errors.append(error)
            finally:
                done.set()

        def clearer():
            try:
                while not done.is_set():
                    service.clear_cache()
            except BaseException as error:  # noqa: BLE001 - reported below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=predictor),
                       threading.Thread(target=clearer)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(WAIT)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert errors == []
        stats = service.stats
        assert stats.cache_hits + stats.cache_misses == stats.requests

    def test_latency_quantiles(self):
        stats = ServiceStats()
        assert np.isnan(stats.latency_p99)
        stats.observe_latencies(value / 1000.0 for value in range(1, 101))
        assert stats.latency_p99 == pytest.approx(0.09901)

    def test_bit_identity_with_registered_estimator(self, tiny_imdb):
        """Same property through a real registered estimator (the
        closed-form scaled-optimizer-cost baseline, trained on an
        executed workload)."""
        from repro.models import get_estimator
        from repro.workload import WorkloadRunner, make_benchmark_workload

        runner = WorkloadRunner(tiny_imdb, seed=31)
        executed = runner.run(
            make_benchmark_workload(tiny_imdb, "scale", 10, seed=31))
        estimator = get_estimator("scaled-optimizer-cost").fit(
            executed, tiny_imdb)
        plans = [record.plan for record in executed]
        reference = estimator.predict_runtime(plans, tiny_imdb)

        results = {}
        service = CostModelService(estimator, tiny_imdb, max_batch_size=4)
        with PredictionServer(service, max_wait_ms=1.0) as server:
            def client(cid):
                results[cid] = [
                    server.predict_runtime(plan, timeout=WAIT).runtime
                    for plan in plans
                ]
            threads = [threading.Thread(target=client, args=(cid,))
                       for cid in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(WAIT)
        for served in results.values():
            np.testing.assert_array_equal(np.asarray(served), reference)


# ----------------------------------------------------------------------
# Satellite 2: fault injection
# ----------------------------------------------------------------------
class TestFaultInjection:
    def test_poisoned_batch_fails_alone(self, tiny_imdb, serve_plans):
        """One poisoned request fails alone: the batch it spoiled is
        served again in halves, down to single requests, so its three
        neighbours get their answers under the batch's pinned version
        and index, and the poisoned request gets the original error of
        its own call.  The server keeps serving and its accounting
        stays consistent."""
        stub = PoisonStub()
        poison = serve_plans[0]
        stub.poisoned.add(float(poison.total_cost))
        service = CostModelService(stub, tiny_imdb, max_batch_size=4)
        # Long max_wait so the four submitted requests deterministically
        # coalesce into one full batch before any flush.
        with PredictionServer(service, max_batch_size=4,
                              max_wait_ms=2_000.0) as server:
            victim, *neighbours = [
                server.submit(plan, tenant="victim")
                for plan in [poison] + list(serve_plans[1:4])]
            with pytest.raises(ModelError, match="injected mid-batch"):
                victim.result(WAIT)
            responses = [pending.result(WAIT) for pending in neighbours]
            reference = CostModelService(
                LinearCostStub(), tiny_imdb).predict_runtime(
                    serve_plans[1:4])
            np.testing.assert_array_equal(
                [response.runtime for response in responses], reference)
            assert {(r.model_version, r.batch_index) for r in responses} \
                == {(server.model_version, 0)}

            assert server.stats.failures == 1
            assert server.stats.requests == 3
            assert server.stats.batches == 1
            assert server.pending == 0
            assert server._batcher.is_alive()

            # The very next batch is served normally.
            survivors = [server.submit(plan, tenant="survivor")
                         for plan in serve_plans[4:8]]
            reference = CostModelService(
                LinearCostStub(), tiny_imdb).predict_runtime(
                    serve_plans[4:8])
            served = np.asarray([p.result(WAIT).runtime
                                 for p in survivors])
            np.testing.assert_array_equal(served, reference)
            assert server.stats.failures == 1
            assert server.stats.requests == 7
            assert server.stats.batches == 2
            assert server.pending == 0

    @pytest.mark.parametrize("poisoned", [
        (0,), (7,), (3, 4), (0, 7), tuple(range(8)),
    ], ids=["first", "last", "middle-pair", "both-ends", "all"])
    def test_only_the_poisoned_requests_fail(self, tiny_imdb, serve_plans,
                                             poisoned):
        """Wherever the bad requests sit in a full batch, and however
        many there are, exactly they fail — each with the error of its
        own call — and every other request gets its runtime."""
        plans = list(serve_plans[:8])
        stub = PoisonStub()
        stub.poisoned.update(float(plans[i].total_cost) for i in poisoned)
        service = CostModelService(stub, tiny_imdb, max_batch_size=8)
        with PredictionServer(service, max_batch_size=8,
                              max_wait_ms=2_000.0) as server:
            pending = [server.submit(plan) for plan in plans]
            errors = []
            for i in poisoned:
                with pytest.raises(ModelError,
                                   match="injected mid-batch") as excinfo:
                    pending[i].result(WAIT)
                errors.append(excinfo.value)
            healthy = [i for i in range(8) if i not in poisoned]
            served = [pending[i].result(WAIT).runtime for i in healthy]
            np.testing.assert_array_equal(
                served, make_service(tiny_imdb).predict_runtime(
                    [plans[i] for i in healthy]))
            assert len({id(error) for error in errors}) == len(poisoned)
            assert server.stats.failures == len(poisoned)
            assert server.stats.requests == len(healthy)
            assert server.stats.batches == 1
            assert server.pending == 0

    @staticmethod
    def _counted(stub, tiny_imdb):
        """A service that records the size of every ``predict_runtime``
        call the server makes."""
        sizes = []

        class Counted(CostModelService):
            def predict_runtime(self, items):
                sizes.append(len(items))
                return super().predict_runtime(items)

        return Counted(stub, tiny_imdb, max_batch_size=8), sizes

    def test_a_healthy_batch_is_one_estimator_call(self, tiny_imdb,
                                                   serve_plans):
        """The split costs nothing until a call fails: a batch that
        succeeds is served by exactly one ``predict_runtime`` call."""
        service, sizes = self._counted(LinearCostStub(), tiny_imdb)
        with PredictionServer(service, max_batch_size=8,
                              max_wait_ms=2_000.0) as server:
            pending = [server.submit(plan) for plan in serve_plans[:8]]
            for request in pending:
                request.result(WAIT)
        assert sizes == [8]

    def test_one_bad_request_costs_a_logarithmic_number_of_calls(
            self, tiny_imdb, serve_plans):
        """One poisoned request in a batch of eight is found by
        halving: the batch, then each half, quarter and single request
        on the poisoned side — seven calls, not one per request twice
        over — and a lone failing request is not retried."""
        stub = PoisonStub()
        stub.poisoned.add(float(serve_plans[0].total_cost))
        service, sizes = self._counted(stub, tiny_imdb)
        with PredictionServer(service, max_batch_size=8,
                              max_wait_ms=2_000.0) as server:
            pending = [server.submit(plan) for plan in serve_plans[:8]]
            with pytest.raises(ModelError):
                pending[0].result(WAIT)
            for request in pending[1:]:
                request.result(WAIT)
            assert sorted(sizes) == [1, 1, 2, 2, 4, 4, 8]
            del sizes[:]
            with pytest.raises(ModelError):
                server.predict_runtime(serve_plans[0], timeout=WAIT)
            assert sizes == [1]

    def test_unpoisoned_traffic_unaffected_after_failure(self, tiny_imdb,
                                                         serve_plans):
        stub = PoisonStub()
        stub.poisoned.add(float(serve_plans[0].total_cost))
        service = CostModelService(stub, tiny_imdb, max_batch_size=8)
        with PredictionServer(service, max_wait_ms=0.5) as server:
            with pytest.raises(ModelError):
                server.predict_runtime(serve_plans[0], timeout=WAIT)
            for _ in range(3):
                response = server.predict_runtime(serve_plans[1],
                                                  timeout=WAIT)
                assert response.runtime > 0
            assert server.stats.requests == 3
            assert server.stats.failures >= 1

    def test_short_answer_fails_the_whole_batch(self, tiny_imdb,
                                                serve_plans):
        """An estimator that returns fewer predictions than requests
        fails every member of that batch (``zip`` used to answer the
        first three and strand the fourth until its own timeout,
        counted nowhere): served alone, each request still gets a short
        answer, so each fails with its own call's error.  The next
        batch is served normally."""
        stub = ShortAnswerStub(missing=1)
        service = CostModelService(stub, tiny_imdb, max_batch_size=4)
        with PredictionServer(service, max_batch_size=4,
                              max_wait_ms=2_000.0) as server:
            victims = [server.submit(plan) for plan in serve_plans[:4]]
            for pending in victims:
                with pytest.raises(ModelError,
                                   match="0 predictions .* 1 requests"):
                    pending.result(WAIT)
            assert server.stats.failures == 4
            assert server.stats.requests == 0
            assert server._batcher.is_alive()

            stub.missing = 0
            survivors = [server.submit(plan) for plan in serve_plans[4:8]]
            served = np.asarray([p.result(WAIT).runtime for p in survivors])
            np.testing.assert_array_equal(
                served, make_service(tiny_imdb).predict_runtime(
                    serve_plans[4:8]))
            assert server.stats.batcher_crashes == 0

    def test_error_outside_the_estimator_call_stops_the_server(
            self, tiny_imdb, serve_plans):
        """An error that escapes the batcher loop (here: an answer no
        ``float()`` accepts) used to kill the thread silently while
        ``submit`` kept accepting requests nobody would answer.  Now the
        server fail-stops: in-flight and queued requests fail with a
        ``ServeError`` carrying the cause, and ``submit`` raises."""
        stub = WideAnswerStub()
        service = CostModelService(stub, tiny_imdb, max_batch_size=2)
        server = PredictionServer(service, max_batch_size=2,
                                  max_wait_ms=2_000.0)
        try:
            in_flight = [server.submit(plan) for plan in serve_plans[:2]]
            assert stub.entered.wait(WAIT)  # batcher blocked mid-batch
            queued = [server.submit(plan) for plan in serve_plans[2:5]]
            stub.release.set()

            errors = []
            for pending in in_flight + queued:
                with pytest.raises(ServeError,
                                   match="batcher stopped") as excinfo:
                    pending.result(WAIT)
                errors.append(excinfo.value)
            assert all(isinstance(error.__cause__, TypeError)
                       for error in errors)

            server._batcher.join(WAIT)
            assert not server._batcher.is_alive()
            assert server.pending == 0
            with pytest.raises(ServeError, match="closed") as excinfo:
                server.submit(serve_plans[5])
            assert excinfo.value.__cause__ is errors[0]
            assert server.stats.batcher_crashes == 1
            assert server.stats.failures == 5
        finally:
            stub.release.set()
            server.close()


# ----------------------------------------------------------------------
# Admission control / load shedding
# ----------------------------------------------------------------------
class TestAdmissionControl:
    def test_overloaded_rejection_at_queue_bound(self, tiny_imdb,
                                                 serve_plans):
        """With the batcher held busy inside a forward, submissions
        beyond ``max_queue_depth`` are shed with ``Overloaded``
        immediately — and every *admitted* request is still served."""
        stub = GatedStub()
        service = CostModelService(stub, tiny_imdb, max_batch_size=8)
        with PredictionServer(service, max_wait_ms=0.0,
                              max_queue_depth=3) as server:
            first = server.submit(serve_plans[0])
            assert stub.entered.wait(WAIT)  # batcher now blocked mid-batch
            admitted = [server.submit(plan)
                        for plan in serve_plans[1:4]]  # fills the queue
            assert server.pending == 3
            with pytest.raises(Overloaded, match="back off"):
                server.submit(serve_plans[4])
            with pytest.raises(Overloaded):
                server.predict_runtime(serve_plans[5])
            assert server.stats.rejected == 2

            stub.release.set()
            for pending in [first] + admitted:
                assert pending.result(WAIT).runtime > 0
            assert server.stats.requests == 4
            assert server.pending == 0

    def test_shed_load_recovers(self, tiny_imdb, serve_plans):
        """After shedding, the server accepts traffic again as soon as
        the queue drains — rejection is stateless."""
        stub = GatedStub()
        service = CostModelService(stub, tiny_imdb, max_batch_size=8)
        with PredictionServer(service, max_wait_ms=0.0,
                              max_queue_depth=1) as server:
            first = server.submit(serve_plans[0])
            assert stub.entered.wait(WAIT)
            queued = server.submit(serve_plans[1])
            with pytest.raises(Overloaded):
                server.submit(serve_plans[2])
            stub.release.set()
            first.result(WAIT)
            queued.result(WAIT)
            assert server.predict_runtime(serve_plans[2],
                                          timeout=WAIT).runtime > 0


# ----------------------------------------------------------------------
# Batch formation under the default options
# ----------------------------------------------------------------------
class TestWorkConserving:
    def test_a_lone_request_is_served_without_a_partner(self, tiny_imdb,
                                                        serve_plans):
        """A default server sets no batch timer: a request that finds
        the batcher idle enters the service alone, before any second
        request exists to share its batch."""
        stub = GatedStub()
        service = CostModelService(stub, tiny_imdb, max_batch_size=8)
        with PredictionServer(service) as server:
            assert server.max_wait_seconds == 0.0
            lone = server.submit(serve_plans[0])
            assert stub.entered.wait(WAIT)
            assert server.pending == 0
            later = server.submit(serve_plans[1])
            stub.release.set()
            assert lone.result(WAIT).batch_index == 0
            assert later.result(WAIT).batch_index == 1

    def test_what_queues_during_a_batch_is_the_next_batch(self, tiny_imdb,
                                                          serve_plans):
        """Requests submitted while a batch is in the service are
        answered together, in the one batch that follows it."""
        stub = GatedStub()
        service = CostModelService(stub, tiny_imdb, max_batch_size=8)
        with PredictionServer(service) as server:
            first = server.submit(serve_plans[0])
            assert stub.entered.wait(WAIT)
            queued = [server.submit(plan) for plan in serve_plans[1:6]]
            assert server.pending == len(queued)
            stub.release.set()
            assert first.result(WAIT).batch_index == 0
            assert {p.result(WAIT).batch_index for p in queued} == {1}
            np.testing.assert_array_equal(
                [p.result(WAIT).runtime for p in queued],
                make_service(tiny_imdb).predict_runtime(serve_plans[1:6]))
            assert server.stats.batches == 2
            assert server.stats.requests == 1 + len(queued)


# ----------------------------------------------------------------------
# Satellite 3: hot model swap
# ----------------------------------------------------------------------
class TestHotSwap:
    def test_swap_estimator_and_version_tags(self, tiny_imdb, serve_plans):
        service = make_service(tiny_imdb, scale=1.0)
        reference = {
            scale: CostModelService(LinearCostStub(scale),
                                    tiny_imdb).predict_runtime(
                                        serve_plans[:1])[0]
            for scale in (1.0, 2.0)
        }
        with PredictionServer(service, max_wait_ms=0.5) as server:
            before = server.predict_runtime(serve_plans[0], timeout=WAIT)
            assert before.model_version == "v0"
            np.testing.assert_array_equal(before.runtime, reference[1.0])

            tag = server.swap(LinearCostStub(2.0))
            assert tag == "v1"
            assert server.model_version == "v1"
            after = server.predict_runtime(serve_plans[0], timeout=WAIT)
            assert after.model_version == "v1"
            np.testing.assert_array_equal(after.runtime, reference[2.0])
            assert server.stats.swaps == 1

            assert server.swap(LinearCostStub(3.0), version="canary") \
                == "canary"
            assert server.predict_runtime(
                serve_plans[0], timeout=WAIT).model_version == "canary"

    def test_a_split_batch_stays_on_its_pinned_version(self, tiny_imdb,
                                                       serve_plans):
        """A swap that lands while a failed batch is being split does
        not reach its halves: the poisoned batch's other requests are
        answered by the version and index the batch was formed with,
        and only the next batch sees the new model."""
        stub = GatedPoisonStub()
        stub.poisoned.add(float(serve_plans[0].total_cost))
        service = CostModelService(stub, tiny_imdb, max_batch_size=4)
        with PredictionServer(service, max_batch_size=4,
                              max_wait_ms=2_000.0) as server:
            pinned = server.model_version
            victim, *neighbours = [server.submit(plan)
                                   for plan in serve_plans[:4]]
            assert stub.entered.wait(WAIT)  # the batch is in the service
            swapped = server.swap(LinearCostStub(scale=2.0))
            stub.release.set()
            with pytest.raises(ModelError, match="injected mid-batch"):
                victim.result(WAIT)
            responses = [pending.result(WAIT) for pending in neighbours]
            assert {(r.model_version, r.batch_index) for r in responses} \
                == {(pinned, 0)}
            np.testing.assert_array_equal(
                [r.runtime for r in responses],
                make_service(tiny_imdb, scale=1.0).predict_runtime(
                    serve_plans[1:4]))
            after = server.predict_runtime(serve_plans[4], timeout=WAIT)
            assert (after.model_version, after.batch_index) == (swapped, 1)
            assert after.runtime == make_service(
                tiny_imdb, scale=2.0).predict_runtime(serve_plans[4:5])[0]

    def test_swap_from_saved_manifest(self, tiny_imdb, serve_plans,
                                      tmp_path, monkeypatch):
        """The deployment path: a newly saved estimator is hot-loaded
        from disk through the ``load_estimator`` manifests."""
        monkeypatch.setitem(ESTIMATORS, LinearCostStub.name, LinearCostStub)
        directory = tmp_path / "fine-tuned"
        LinearCostStub(4.0).save(directory)
        service = make_service(tiny_imdb, scale=1.0)
        reference = CostModelService(
            LinearCostStub(4.0), tiny_imdb).predict_runtime(serve_plans)
        with PredictionServer(service) as server:
            tag = server.swap(directory, warm=serve_plans)
            assert tag == f"{LinearCostStub.name}@fine-tuned"
            # The swapped-in service was warmed before installation.
            assert len(server.service._cache) == len(serve_plans)
            response = server.predict_runtime(serve_plans[0], timeout=WAIT)
            assert response.model_version == tag
            np.testing.assert_array_equal(response.runtime, reference[0])

    def test_swap_rejects_garbage_directory(self, tiny_imdb, serve_plans,
                                            tmp_path):
        service = make_service(tiny_imdb)
        with PredictionServer(service) as server:
            with pytest.raises(ModelError, match="saved estimator"):
                server.swap(tmp_path)  # no manifest at all
            # A manifest naming an unloadable estimator is caught by
            # peek_manifest before any weights are touched.
            LinearCostStub(2.0).save(tmp_path / "unregistered")
            with pytest.raises(ModelError, match="no estimator class"):
                server.swap(tmp_path / "unregistered")
            # Failed swaps leave the installed model untouched.
            assert server.model_version == "v0"
            assert server.stats.swaps == 0
            assert server.predict_runtime(serve_plans[0],
                                          timeout=WAIT).runtime > 0

    def test_swap_from_a_corrupt_manifest_keeps_the_old_model(
            self, tiny_imdb, serve_plans, tmp_path):
        """A truncated ``estimator.json`` fails the swap with the
        ``ModelError`` of a bad manifest, and the server keeps answering
        on the installed version, bit for bit."""
        (tmp_path / "estimator.json").write_text('{"name": "zero-sh')
        service = make_service(tiny_imdb, scale=1.0)
        reference = CostModelService(
            LinearCostStub(1.0), tiny_imdb).predict_runtime(serve_plans)
        with PredictionServer(service) as server:
            with pytest.raises(ModelError, match="estimator.json"):
                server.swap(tmp_path)
            assert server.model_version == "v0"
            assert server.stats.swaps == 0
            for plan, expected in zip(serve_plans, reference):
                response = server.predict_runtime(plan, timeout=WAIT)
                assert response.model_version == "v0"
                np.testing.assert_array_equal(response.runtime, expected)

    @pytest.mark.parametrize("seed", [3, 17])
    def test_hot_swap_property_under_load(self, tiny_imdb, serve_plans,
                                          seed):
        """Randomly interleave swaps with request streams: every
        response is tagged with exactly one model version (and its
        value proves the tag), no request is dropped, and no batch
        mixes versions."""
        scales = {"v0": 1.0, "v1": 2.0, "v2": 3.0, "v3": 5.0}
        expected = {}
        for version, scale in scales.items():
            direct = CostModelService(LinearCostStub(scale),
                                      tiny_imdb).predict_runtime(serve_plans)
            expected[version] = {id(plan): direct[i]
                                 for i, plan in enumerate(serve_plans)}

        n_clients, per_client = 4, 30
        service = make_service(tiny_imdb, scale=scales["v0"])
        responses = []
        responses_lock = threading.Lock()
        with PredictionServer(service, max_batch_size=8,
                              max_wait_ms=1.0) as server:
            barrier = threading.Barrier(n_clients + 1)

            def client(cid):
                rng = np.random.default_rng((seed, cid))
                barrier.wait(WAIT)
                mine = []
                for _ in range(per_client):
                    plan = serve_plans[rng.integers(len(serve_plans))]
                    mine.append((plan,
                                 server.predict_runtime(plan,
                                                        timeout=WAIT)))
                    if rng.random() < 0.2:
                        time.sleep(rng.random() / 2000.0)
                with responses_lock:
                    responses.extend(mine)

            def swapper():
                rng = np.random.default_rng((seed, 104729))
                barrier.wait(WAIT)
                for version in ["v1", "v2", "v3"]:
                    time.sleep(rng.random() / 100.0)
                    server.swap(LinearCostStub(scales[version]),
                                version=version)

            threads = [threading.Thread(target=client, args=(cid,))
                       for cid in range(n_clients)]
            threads.append(threading.Thread(target=swapper))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(WAIT)
            assert not any(t.is_alive() for t in threads)

            # Zero dropped requests.
            assert len(responses) == n_clients * per_client
            assert server.stats.requests == n_clients * per_client
            assert server.pending == 0
            assert server.stats.swaps == 3

            # Exactly one version per response, and the *value* matches
            # the tagged version bit for bit.
            batch_versions = {}
            for plan, response in responses:
                assert response.model_version in scales
                np.testing.assert_array_equal(
                    response.runtime,
                    expected[response.model_version][id(plan)])
                batch_versions.setdefault(response.batch_index,
                                          set()).add(response.model_version)
            # No batch mixes versions.
            assert all(len(versions) == 1
                       for versions in batch_versions.values())


# ----------------------------------------------------------------------
# The batcher's allocator
# ----------------------------------------------------------------------
#: Serves a bench-smoke-sized zero-shot model (IMDB scale 0.02, 16
#: queries, hidden_dim 16, 2 epochs) with 256 requests outstanding until
#: 40 full 64-request batches are answered, and prints the minor page
#: faults the batcher thread took inside each full batch's
#: ``predict_runtime``.
FAULTS_PER_BATCH = """
import json, resource
from collections import deque
from repro.db import make_imdb_database
from repro.models import TrainerConfig, ZeroShotConfig, ZeroShotEstimator
from repro.serve import CostModelService, PredictionServer
from repro.workload import WorkloadRunner, WorkloadSpec, generate_workload

imdb = make_imdb_database(scale=0.02, seed=42)
records = WorkloadRunner(imdb, seed=0).run(
    generate_workload(imdb, WorkloadSpec(num_queries=16, seed=0)))
estimator = ZeroShotEstimator(ZeroShotConfig(hidden_dim=16))
estimator.fit(records, imdb, TrainerConfig(epochs=2,
                                           early_stopping_patience=3))
plans = [record.plan for record in records]
batches = []

class FaultCounting(CostModelService):
    def predict_runtime(self, items):
        before = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt
        runtimes = super().predict_runtime(items)
        batches.append((len(items), resource.getrusage(
            resource.RUSAGE_THREAD).ru_minflt - before))
        return runtimes

service = FaultCounting(estimator, imdb)
service.warm(plans)
with PredictionServer(service) as server:
    outstanding, sent = deque(), 0
    while sum(size == 64 for size, _ in batches) < 40:
        if len(outstanding) >= 256:
            outstanding.popleft().result(60)
        outstanding.append(server.submit(plans[sent % len(plans)]))
        sent += 1
    for pending in outstanding:
        pending.result(60)
print(json.dumps([faults for size, faults in batches if size == 64]))
"""


class TestBatcherArena:
    @pytest.mark.skipif(not on_glibc(), reason="counts glibc's malloc arenas")
    def test_a_full_batch_does_not_refault_the_heap(self):
        """Counted, not timed.  In its own arena the batcher gave a
        batch's freed temporaries back to the kernel and faulted them in
        again for the next batch (median 205-228 minor faults per full
        batch at this size); from the main arena, a handful.  A fresh
        interpreter, because arenas that threads of earlier tests left on
        glibc's free list go to the next thread whatever the limit."""
        import repro
        env = dict(os.environ, PYTHONPATH=os.path.dirname(
            os.path.dirname(repro.__file__)))
        done = subprocess.run([sys.executable, "-c", FAULTS_PER_BATCH],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == 0, done.stderr
        faults = json.loads(done.stdout.splitlines()[-1])
        assert len(faults) >= 40
        assert statistics.median(faults) <= 50, faults

    @pytest.mark.parametrize("libc", ["glibc without mallopt", "not glibc"])
    def test_the_arena_limit_is_a_silent_no_op_without_mallopt(
            self, monkeypatch, libc):
        loaded = []

        class NoMallopt:
            def __init__(self, name):
                loaded.append(name)

        def confstr(name):
            if libc == "not glibc":
                raise ValueError(f"unrecognized configuration name {name!r}")
            return "glibc 2.36"

        monkeypatch.setattr(os, "confstr", confstr)
        monkeypatch.setattr(ctypes, "CDLL", NoMallopt)
        assert _share_the_main_arena() is None
        assert loaded == ([None] if libc != "not glibc" else [])

    def test_glibc_is_limited_to_one_arena_through_mallopt(
            self, monkeypatch):
        calls = []

        class Libc:
            def __init__(self, name):
                self.mallopt = lambda *args: calls.append(args) or 1

        monkeypatch.setattr(os, "confstr", lambda name: "glibc 2.36")
        monkeypatch.setattr(ctypes, "CDLL", Libc)
        _share_the_main_arena()
        assert calls == [(-8, 1)]      # M_ARENA_MAX, one arena

    def test_two_servers_in_one_process(self, tiny_imdb, serve_plans):
        """The second constructor sets the limit again; both serve."""
        reference = make_service(tiny_imdb).predict_runtime(serve_plans[:2])
        with PredictionServer(make_service(tiny_imdb)) as first, \
                PredictionServer(make_service(tiny_imdb)) as second:
            answers = [first.predict_runtime(serve_plans[0], timeout=WAIT),
                       second.predict_runtime(serve_plans[1], timeout=WAIT)]
        np.testing.assert_array_equal(
            [answer.runtime for answer in answers], reference)
