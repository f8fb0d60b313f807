"""Micro-benchmarks of the substrate and the model pipeline.

These are conventional pytest-benchmark measurements (multiple rounds)
of the pieces a user of the library cares about: planning latency,
execution throughput, featurization, model inference and one training
epoch — plus the join-kernel microbenchmarks that establish the
executor's performance trajectory (hash/merge/nested-loop kernels vs
the historical sort-based kernel).
"""

import os
import time

import numpy as np
import pytest

from repro.db import generate_training_database_specs
from repro.engine import Executor
from repro.engine.join_kernels import (
    JoinHashTable,
    block_nested_loop_match,
    hash_join_match,
    merge_join_match,
    sort_merge_match,
)
from repro.featurize.batch import encode_graphs, fit_scalers, merge_encoded
from repro.featurize.graph import CardinalitySource, ZeroShotFeaturizer
from repro.nn import BatchIterator, Tensor, no_grad
from repro.optimizer import Planner
from repro.runtime import RuntimeSimulator
from repro.workload import (
    collect_training_corpus,
    make_benchmark_workload,
)


@pytest.fixture(scope="module")
def imdb(context):
    return context.imdb


@pytest.fixture(scope="module")
def queries(imdb):
    return make_benchmark_workload(imdb, "scale", 20, seed=99)


@pytest.fixture(scope="module")
def executed_plans(imdb, queries):
    planner = Planner(imdb)
    executor = Executor(imdb)
    plans = []
    for query in queries:
        plan = planner.plan(query)
        executor.execute(plan)
        plans.append(plan)
    return plans


# ----------------------------------------------------------------------
# Join-kernel microbenchmarks
#
# Key shapes mirror a FK→PK join at the default IMDB scale (title ≈ 25k
# rows on the build side, cast_info ≈ 60k skewed FK rows probing it).
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def join_keys():
    rng = np.random.default_rng(17)
    build = rng.permutation(25_000).astype(np.int64)
    probe = rng.integers(0, 25_000, 60_000, dtype=np.int64)
    return probe, build


def test_hash_join_kernel(benchmark, join_keys):
    probe, build = join_keys
    left, right = benchmark(hash_join_match, probe, build)
    assert len(left) == len(probe)
    assert len(right) == len(probe)


def test_sort_merge_reference_kernel(benchmark, join_keys):
    """The historical sort-based kernel, kept as the perf baseline."""
    probe, build = join_keys
    left, _ = benchmark(sort_merge_match, probe, build)
    assert len(left) == len(probe)


def test_merge_join_kernel(benchmark, join_keys):
    probe, build = join_keys
    sorted_build = np.sort(build)
    left, _ = benchmark(merge_join_match, probe, sorted_build)
    assert len(left) == len(probe)


def test_block_nested_loop_kernel(benchmark):
    rng = np.random.default_rng(23)
    outer = rng.integers(0, 1_000, 2_000, dtype=np.int64)
    inner = rng.integers(0, 1_000, 2_000, dtype=np.int64)
    left, right = benchmark(block_nested_loop_match, outer, inner)
    assert len(left) == len(right) > 0


def test_hash_table_reuse(benchmark, join_keys):
    """Probe-only throughput: what the build-side cache saves per query."""
    probe, build = join_keys
    table = JoinHashTable.build(build)
    left, _ = benchmark(table.probe, probe)
    assert len(left) == len(probe)


def test_hash_table_tiny_build_side(benchmark):
    """A 46-key table under 80 000 probe keys: nearly every probe row
    finds an empty bucket or another key, 46 of them match."""
    rng = np.random.default_rng(46)
    probe = rng.permutation(80_000).astype(np.int64)
    table = JoinHashTable.build(probe[:46].copy())
    left, _ = benchmark(table.probe, probe)
    assert len(left) == 46


def test_hash_join_kernel_speedup(join_keys):
    """Acceptance gate: hash kernel ≥3× the sort kernel, same results."""
    probe, build = join_keys
    expected = sort_merge_match(probe, build)
    actual = hash_join_match(probe, build)
    np.testing.assert_array_equal(expected[0], actual[0])
    np.testing.assert_array_equal(expected[1], actual[1])

    # Interleave rounds so a load spike hits both kernels alike.
    best = {sort_merge_match: float("inf"), hash_join_match: float("inf")}
    for _ in range(11):
        for kernel in (sort_merge_match, hash_join_match):
            start = time.perf_counter()
            kernel(probe, build)
            best[kernel] = min(best[kernel], time.perf_counter() - start)
    sort_seconds = best[sort_merge_match]
    hash_seconds = best[hash_join_match]
    speedup = sort_seconds / hash_seconds
    assert speedup >= 3.0, (
        f"hash kernel only {speedup:.2f}x faster than the sort kernel "
        f"({sort_seconds * 1e3:.2f} ms vs {hash_seconds * 1e3:.2f} ms)"
    )


# ----------------------------------------------------------------------
# Sharded corpus-collection gates
#
# Collection is per-database shards run in-process or on a process
# pool.  Two gates: the two must agree bit for bit, and the pool must
# actually buy wall-clock at the default fleet.
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def fleet_specs(scale):
    """The default-scale training fleet, as hydration specs."""
    return generate_training_database_specs(
        scale.num_training_databases, base_seed=scale.seed,
        min_rows=scale.training_db_min_rows,
        max_rows=scale.training_db_max_rows,
    )


@pytest.mark.parallel
def test_backend_corpora_bit_identical(scale, fleet_specs):
    """In-process and process-pool collection of the default fleet must
    produce record-identical corpora (reduced query count keeps the
    double collection affordable; the databases are the real fleet)."""
    kwargs = dict(
        seed=scale.seed,
        random_indexes_per_database=scale.random_indexes_per_database,
        noise_sigma=scale.training_noise_sigma,
    )
    serial = collect_training_corpus(fleet_specs, 25, workers=1, **kwargs)
    parallel = collect_training_corpus(fleet_specs, 25, workers=2, **kwargs)
    assert list(serial.records_by_database) == \
        list(parallel.records_by_database)
    for name, serial_records in serial.records_by_database.items():
        parallel_records = parallel.records_by_database[name]
        assert len(serial_records) == len(parallel_records)
        for a, b in zip(serial_records, parallel_records):
            assert str(a.query) == str(b.query)
            assert a.runtime_seconds == b.runtime_seconds
            assert a.memory_peak_bytes == b.memory_peak_bytes
            assert a.io_pages == b.io_pages
            assert [n.actual_rows for n in a.plan.nodes()] == \
                [n.actual_rows for n in b.plan.nodes()]


@pytest.mark.parallel
@pytest.mark.slow
def test_parallel_collection_speedup(scale, fleet_specs):
    """Acceptance gate: process-pool collection of the default-scale
    corpus is ≥2× faster than serial with ≥4 workers."""
    cores = os.cpu_count() or 1
    if cores < 4:
        pytest.skip(f"needs >=4 cores for a meaningful speedup gate, "
                    f"have {cores}")
    workers = max(4, min(len(fleet_specs), cores))
    kwargs = dict(
        seed=scale.seed,
        random_indexes_per_database=scale.random_indexes_per_database,
        noise_sigma=scale.training_noise_sigma,
    )

    start = time.perf_counter()
    serial = collect_training_corpus(
        fleet_specs, scale.queries_per_database, workers=1, **kwargs)
    serial_seconds = time.perf_counter() - start

    start = time.perf_counter()
    parallel = collect_training_corpus(
        fleet_specs, scale.queries_per_database, workers=workers, **kwargs)
    parallel_seconds = time.perf_counter() - start

    assert serial.num_queries == parallel.num_queries
    speedup = serial_seconds / parallel_seconds
    assert speedup >= 2.0, (
        f"process-pool collection only {speedup:.2f}x faster than serial "
        f"with {workers} workers ({serial_seconds:.1f}s vs "
        f"{parallel_seconds:.1f}s)"
    )


# ----------------------------------------------------------------------
# One-pass featurization gates
#
# Training used to re-featurize and re-batch every graph on every
# mini-batch of every epoch; now graphs are encoded exactly once and
# mini-batches are assembled by a cheap vectorized merge.
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def corpus_graphs(context):
    """The full default-scale training corpus, featurized once."""
    return context.corpus.featurize(CardinalitySource.ESTIMATED)


def test_one_pass_featurization_epoch_speedup(context, corpus_graphs):
    """Acceptance gate: the per-epoch featurization/batching work of
    prebuilt-batch training is ≥3× cheaper than the
    re-featurize-per-batch baseline at ``ExperimentScale.default()``.

    Each arm does exactly the featurization work a training epoch
    repeats — the model step is identical in both (the merged batches
    are bit-identical, see
    ``tests/featurize/test_graph_encoding.py``):

    * baseline: ``encode_graphs`` + ``merge_encoded`` over every
      shuffled mini-batch plus the re-batched validation set;
    * one-pass (what ``fit`` does): ``merge_encoded`` per mini-batch,
      with the one-time ``encode_graphs`` + prebuilt validation batch
      amortized over the scale's configured epoch count.

    Rounds are interleaved (like the join-kernel gate) so a load spike
    hits both arms alike.
    """
    scale = context.scale
    batch_size = scale.zero_shot_trainer.batch_size
    scalers = fit_scalers(corpus_graphs)
    # Fixed ~15% validation split, mirroring TrainerConfig defaults.
    split = max(1, int(np.ceil(len(corpus_graphs) * 0.15)))
    validation, train = corpus_graphs[:split], corpus_graphs[split:]

    # One-time cost of the one-pass arm, charged over a real fit's
    # epoch count.
    start = time.perf_counter()
    encoded_train = encode_graphs(train, scalers)
    validation_batch = merge_encoded(encode_graphs(validation, scalers),
                                     require_targets=True)
    one_time_seconds = time.perf_counter() - start
    assert len(validation_batch.roots) == split

    def batch_graphs(graphs):
        return merge_encoded(encode_graphs(graphs, scalers),
                             require_targets=True)

    def baseline_epoch(rng):
        for batch in BatchIterator(train, batch_size, rng=rng):
            batch_graphs(batch)
        batch_graphs(validation)

    def one_pass_epoch(rng):
        for batch in BatchIterator(encoded_train, batch_size, rng=rng):
            merge_encoded(batch, require_targets=True)

    best = {baseline_epoch: float("inf"), one_pass_epoch: float("inf")}
    rng = np.random.default_rng(0)
    for _ in range(7):
        for epoch in (baseline_epoch, one_pass_epoch):
            start = time.perf_counter()
            epoch(rng)
            best[epoch] = min(best[epoch], time.perf_counter() - start)

    baseline_seconds = best[baseline_epoch]
    one_pass_seconds = (best[one_pass_epoch]
                        + one_time_seconds / scale.zero_shot_trainer.epochs)
    speedup = baseline_seconds / one_pass_seconds
    assert speedup >= 3.0, (
        f"one-pass featurization only {speedup:.2f}x faster per epoch "
        f"({baseline_seconds * 1e3:.1f} ms vs "
        f"{one_pass_seconds * 1e3:.1f} ms per epoch)"
    )


def test_merge_encoded_batch(benchmark, context, corpus_graphs):
    """Throughput of the per-mini-batch merge (the new hot path)."""
    scalers = fit_scalers(corpus_graphs)
    encoded = encode_graphs(corpus_graphs, scalers)
    batch_size = context.scale.zero_shot_trainer.batch_size
    batch = benchmark(merge_encoded, encoded[:batch_size])
    assert len(batch.roots) == min(batch_size, len(encoded))


# ----------------------------------------------------------------------
# Cost-model serving gates
#
# Callers historically predicted per plan: featurize + encode + a
# batch-of-one forward for every call.  repro.serve.CostModelService
# micro-batches the forwards and caches the per-plan encode precompute
# under an LRU bound; batch-size-invariant inference (repro.nn.tensor)
# makes the service's answers bit-identical to per-plan calls.
# ----------------------------------------------------------------------
def test_cost_model_service_speedup(context, imdb, executed_plans):
    """Acceptance gate: steady-state batched service throughput is ≥3×
    per-plan ``predict_runtime`` calls for the zero-shot model at
    ``ExperimentScale.default()`` — with bit-identical outputs across
    per-plan, batched, cold-cache and warm-cache paths."""
    from repro.serve import CostModelService

    estimator = context.estimator(CardinalitySource.ESTIMATED)
    service = CostModelService(estimator, imdb)
    plans = executed_plans

    reference = estimator.predict_runtime(plans, imdb)
    served_cold = service.predict_runtime(plans)
    served_warm = service.predict_runtime(plans)
    per_plan = np.array([estimator.predict_runtime([p], imdb)[0]
                         for p in plans])
    np.testing.assert_array_equal(served_cold, reference)
    np.testing.assert_array_equal(served_warm, reference)
    np.testing.assert_array_equal(per_plan, reference)

    def per_plan_arm():
        for plan in plans:
            estimator.predict_runtime([plan], imdb)

    def service_arm():
        service.predict_runtime(plans)

    # Interleave rounds so a load spike hits both arms alike (the
    # service stays warm across rounds: steady-state serving).
    best = {per_plan_arm: float("inf"), service_arm: float("inf")}
    for _ in range(7):
        for arm in (per_plan_arm, service_arm):
            start = time.perf_counter()
            arm()
            best[arm] = min(best[arm], time.perf_counter() - start)

    speedup = best[per_plan_arm] / best[service_arm]
    assert speedup >= 3.0, (
        f"batched service only {speedup:.2f}x faster than per-plan "
        f"prediction ({best[per_plan_arm] * 1e3:.1f} ms vs "
        f"{best[service_arm] * 1e3:.1f} ms for {len(plans)} plans)"
    )


def test_cost_model_service_throughput(benchmark, context, imdb,
                                       executed_plans):
    """Steady-state service throughput (plans/s) at default scale."""
    from repro.serve import CostModelService

    estimator = context.estimator(CardinalitySource.ESTIMATED)
    service = CostModelService(estimator, imdb)
    service.warm(executed_plans)

    predictions = benchmark(service.predict_runtime, executed_plans)
    assert predictions.shape == (len(executed_plans),)


def test_planner_latency(benchmark, imdb, queries):
    planner = Planner(imdb)

    def plan_all():
        return [planner.plan(q) for q in queries]

    plans = benchmark(plan_all)
    assert len(plans) == len(queries)


def test_executor_throughput(benchmark, imdb, executed_plans):
    executor = Executor(imdb)

    def run_all():
        total = 0
        for plan in executed_plans:
            plan.reset_actuals()
            executor.execute(plan)
            total += 1
        return total

    assert benchmark(run_all) == len(executed_plans)


def test_runtime_simulation(benchmark, imdb, executed_plans):
    simulator = RuntimeSimulator(imdb, noise_sigma=0.0)

    def simulate_all():
        return [simulator.simulate(p).total_seconds for p in executed_plans]

    runtimes = benchmark(simulate_all)
    assert all(r > 0 for r in runtimes)


def test_featurization_throughput(benchmark, imdb, executed_plans):
    featurizer = ZeroShotFeaturizer(CardinalitySource.ACTUAL)

    def featurize_all():
        return [featurizer.featurize(p, imdb) for p in executed_plans]

    graphs = benchmark(featurize_all)
    assert len(graphs) == len(executed_plans)


def test_zero_shot_inference_latency(benchmark, context, imdb,
                                     executed_plans):
    model = context.zero_shot_models[CardinalitySource.ACTUAL]
    featurizer = ZeroShotFeaturizer(CardinalitySource.ACTUAL)
    graphs = [featurizer.featurize(p, imdb) for p in executed_plans]

    predictions = benchmark(lambda: model.predict_runtime(graphs))
    assert (predictions > 0).all()


def test_message_passing_forward(benchmark, context, imdb, executed_plans):
    """One batched forward pass through the graph network."""
    model = context.zero_shot_models[CardinalitySource.ACTUAL]
    featurizer = ZeroShotFeaturizer(CardinalitySource.ACTUAL)
    graphs = [featurizer.featurize(p, imdb) for p in executed_plans]
    batch = merge_encoded(encode_graphs(graphs, model.scalers))

    def forward():
        with no_grad():
            return model.net(batch)

    out = benchmark(forward)
    assert out.shape == (len(graphs),)
