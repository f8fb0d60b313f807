"""Traffic microbench: the concurrent serving tier under tenant load.

The ROADMAP's north star is heavy traffic from many concurrent
callers.  ``repro.serve.CostModelService`` (PR 4) made *one* caller
cheap; ``repro.serve.PredictionServer`` coalesces requests *across*
callers.  Two checks:

* **bit-identity/SLO** — 8 simulated clients issuing blocking requests
  through a server with the default options (no batch timer) get every
  response bit-identical to direct estimator prediction, every request
  counted once, p99 submit→response latency under a hard bound, and
  fewer forwards than requests: what queues while a batch is served is
  the next batch (served throughput itself is ``throughput_ops_s`` of
  ``python3 -m bench``);
* **hot swap under load** — on a server with a 2 ms batch timer, so
  that the timer's flush path runs under load too, swapping in a
  freshly saved estimator
  (through the ``load_estimator`` manifests) while 8 clients stream
  requests drops zero requests, never mixes model versions within a
  batch, and keeps every response bit-identical (same weights → same
  bits, whichever version served it).

Every wait in this file is bounded, so a deadlocked server fails the
test instead of hanging the job.
"""

import threading

import numpy as np
import pytest

from repro.featurize.graph import CardinalitySource
from repro.optimizer import Planner
from repro.serve import CostModelService, PredictionServer
from repro.workload import make_benchmark_workload

pytestmark = pytest.mark.concurrency

N_CLIENTS = 8
REQUESTS_PER_CLIENT = 40
#: Hard SLO on p99 submit→response latency under sustained 8-client
#: load (default-scale zero-shot model, warm encode cache).
P99_BOUND_SECONDS = 0.25
#: Bound on every individual wait — a hung server fails, never hangs.
WAIT = 120.0


@pytest.fixture(scope="module")
def imdb(context):
    return context.imdb


@pytest.fixture(scope="module")
def estimator(context):
    return context.estimator(CardinalitySource.ESTIMATED)


@pytest.fixture(scope="module")
def serving_plans(imdb):
    planner = Planner(imdb)
    queries = make_benchmark_workload(imdb, "scale", 20, seed=99)
    return [planner.plan(query) for query in queries]


def _stream_clients(server, serving_plans, n_clients, per_client):
    """``n_clients`` threads, each issuing ``per_client`` blocking
    requests over its own seeded shuffle of the plan pool; returns all
    (plan, response) pairs."""
    responses = []
    lock = threading.Lock()
    barrier = threading.Barrier(n_clients + 1)

    def client(cid):
        rng = np.random.default_rng(cid)
        barrier.wait(WAIT)
        mine = []
        for _ in range(per_client):
            plan = serving_plans[rng.integers(len(serving_plans))]
            mine.append((plan, server.predict_runtime(
                plan, tenant=f"tenant-{cid}", timeout=WAIT)))
        with lock:
            responses.extend(mine)

    threads = [threading.Thread(target=client, args=(cid,))
               for cid in range(n_clients)]
    for thread in threads:
        thread.start()
    barrier.wait(WAIT)
    for thread in threads:
        thread.join(WAIT)
    assert not any(thread.is_alive() for thread in threads), \
        "client threads stuck: serving tier deadlocked"
    return responses


def test_multi_tenant_serving_slo(estimator, imdb, serving_plans):
    """8 concurrent clients get bit-identical responses, every request
    is counted once, p99 latency stays under the SLO, and requests
    coalesce into fewer forwards."""
    service = CostModelService(estimator, imdb)
    service.warm(serving_plans)
    reference = {
        id(plan): value for plan, value in
        zip(serving_plans, service.predict_runtime(serving_plans))
    }
    total = N_CLIENTS * REQUESTS_PER_CLIENT

    with PredictionServer(service) as server:
        responses = _stream_clients(
            server, serving_plans, N_CLIENTS, REQUESTS_PER_CLIENT)
        # Bit-identity under cross-client batching.
        for plan, response in responses:
            assert response.runtime == reference[id(plan)]
        assert len(responses) == total
        assert server.stats.requests == total
        assert server.stats.failures == 0
        # SLO: p99 submit→response latency under sustained load.  An
        # empty window makes latency_p99 NaN, and every comparison
        # against NaN is False — the check must fail loudly on "no
        # samples", not on a baffling NaN inequality (or pass, if
        # anyone ever inverts the assert).
        p99 = server.stats.latency_p99
        assert not np.isnan(p99), (
            "no latency samples recorded: the SLO check has nothing "
            "to read"
        )
        assert p99 < P99_BOUND_SECONDS, (
            f"p99 latency {p99 * 1e3:.1f} ms breaches the "
            f"{P99_BOUND_SECONDS * 1e3:.0f} ms SLO"
        )
        # Coalescing happened: far fewer forwards than requests.
        assert server.stats.batches < total


def test_hot_swap_under_load_zero_drops(estimator, imdb, serving_plans,
                                        tmp_path_factory):
    """Hot-swapping a freshly saved estimator in from disk under
    sustained load drops zero requests, keeps one model version per
    batch, and stays bit-identical throughout."""
    directory = tmp_path_factory.mktemp("swap") / "refreshed"
    estimator.save(directory)

    service = CostModelService(estimator, imdb)
    service.warm(serving_plans)
    reference = {
        id(plan): value for plan, value in
        zip(serving_plans, service.predict_runtime(serving_plans))
    }
    total = N_CLIENTS * REQUESTS_PER_CLIENT

    swap_tags = []
    with PredictionServer(service, max_batch_size=N_CLIENTS,
                          max_wait_ms=2.0) as server:
        stop_swapping = threading.Event()

        def swapper():
            # Keep reloading the saved model while traffic flows: the
            # load + warm happen off the serving lock, installation is
            # atomic.
            while not stop_swapping.is_set():
                tag = f"refresh-{len(swap_tags) + 1}"
                swap_tags.append(server.swap(directory, version=tag,
                                             warm=serving_plans))
                stop_swapping.wait(0.02)

        swap_thread = threading.Thread(target=swapper)
        swap_thread.start()
        try:
            responses = _stream_clients(
                server, serving_plans, N_CLIENTS, REQUESTS_PER_CLIENT)
        finally:
            stop_swapping.set()
            swap_thread.join(WAIT)
        assert not swap_thread.is_alive()

        # Zero dropped requests, all accounted for.
        assert len(responses) == total
        assert server.stats.requests == total
        assert server.stats.failures == 0
        assert server.pending == 0
        assert server.stats.swaps == len(swap_tags) >= 1

        versions_seen = set()
        batch_versions = {}
        for plan, response in responses:
            # Same weights on both sides of every swap → bit-identical
            # predictions no matter which version served the request.
            assert response.runtime == reference[id(plan)]
            versions_seen.add(response.model_version)
            batch_versions.setdefault(response.batch_index,
                                      set()).add(response.model_version)
        # Every response tagged with exactly one known version...
        assert versions_seen <= {"v0", *swap_tags}
        # ...and no batch mixes versions.
        assert all(len(versions) == 1
                   for versions in batch_versions.values())
