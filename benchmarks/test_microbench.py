"""The substrate and the model pipeline at default scale, checked once.

Each path a user of the library cares about runs once on default-scale
inputs: the join kernels (hash / nested-loop against where each probe
key sits in the build side), planning, execution, simulation, featurization,
inference, the one-pass epoch and the batched service.
What each path costs is measured by ``python3 -m bench``; these tests
check what it computes.
"""

import dataclasses

import numpy as np
import pytest

from repro.db import generate_training_database_specs
from repro.engine import Executor
from repro.engine.join_kernels import (
    JoinHashTable,
    block_nested_loop_match,
    hash_join_match,
)
from repro.featurize.batch import encode_graphs, fit_scalers, merge_encoded
from repro.featurize.graph import CardinalitySource, ZeroShotFeaturizer
from repro.nn import BatchIterator, no_grad
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
# Join kernels
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


def test_hash_join_kernel(join_keys):
    probe, build = join_keys
    left, right = hash_join_match(probe, build)
    assert len(left) == len(probe)
    assert len(right) == len(probe)


def test_block_nested_loop_kernel():
    rng = np.random.default_rng(23)
    outer = rng.integers(0, 1_000, 2_000, dtype=np.int64)
    inner = rng.integers(0, 1_000, 2_000, dtype=np.int64)
    left, right = block_nested_loop_match(outer, inner)
    assert len(left) == len(right) > 0


def test_hash_table_reuse(join_keys):
    """Probe only: what the build-side cache reuses per query."""
    probe, build = join_keys
    table = JoinHashTable.build(build)
    left, _ = table.probe(probe)
    assert len(left) == len(probe)


def test_sorted_table_matches_the_direct_one(join_keys):
    """The same FK -> PK join with its keys spread 64 apart, past the
    direct layout's cap: the sorted table pairs the same rows."""
    probe, build = join_keys
    direct = JoinHashTable.build(build)
    spread = JoinHashTable.build(build * 64)
    assert direct._slots is not None and spread._distinct is not None
    for expected, actual in zip(direct.probe(probe),
                                spread.probe(probe * 64)):
        np.testing.assert_array_equal(expected, actual)


def test_hash_table_tiny_build_side():
    """A 46-key table under 80 000 probe keys: nearly every probe row
    reads an empty slot, 46 of them match."""
    rng = np.random.default_rng(46)
    probe = rng.permutation(80_000).astype(np.int64)
    table = JoinHashTable.build(probe[:46].copy())
    left, _ = table.probe(probe)
    assert len(left) == 46


def test_hash_join_kernel_matches_the_pk_positions(join_keys):
    """Every probe row of the FK -> PK join pairs with the one build row
    holding its key, in probe order."""
    probe, build = join_keys
    position = np.empty_like(build)
    position[build] = np.arange(len(build))
    left, right = hash_join_match(probe, build)
    np.testing.assert_array_equal(left, np.arange(len(probe)))
    np.testing.assert_array_equal(right, position[probe])


# ----------------------------------------------------------------------
# Sharded corpus collection
#
# Collection is per-database shards run in-process or on a process
# pool; the two must agree bit for bit.
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


# ----------------------------------------------------------------------
# One-pass featurization
#
# Training used to re-featurize and re-batch every graph on every
# mini-batch of every epoch; now graphs are encoded exactly once and
# mini-batches are assembled by a cheap vectorized merge.
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def corpus_graphs(context):
    """The full default-scale training corpus, featurized once."""
    return context.corpus.featurize(CardinalitySource.ESTIMATED)


def _assert_bit_identical(left, right):
    """Equal field by field, every array bit for bit, dtype included."""
    if isinstance(left, np.ndarray):
        assert left.dtype == right.dtype
        np.testing.assert_array_equal(left, right)
    elif dataclasses.is_dataclass(left):
        assert type(left) is type(right)
        for field in dataclasses.fields(left):
            _assert_bit_identical(getattr(left, field.name),
                                  getattr(right, field.name))
    elif isinstance(left, dict):
        assert left.keys() == right.keys()
        for key in left:
            _assert_bit_identical(left[key], right[key])
    elif isinstance(left, (list, tuple)):
        assert len(left) == len(right)
        for left_item, right_item in zip(left, right):
            _assert_bit_identical(left_item, right_item)
    else:
        assert left == right


def test_one_pass_epoch_batches_bit_identical(context, corpus_graphs):
    """One shuffled epoch of prebuilt-batch training (what ``fit`` does:
    ``encode_graphs`` once, then ``merge_encoded`` per mini-batch) hands
    the model the batches of the re-featurize-per-batch baseline
    (``encode_graphs`` + ``merge_encoded`` per mini-batch), bit for bit,
    at ``ExperimentScale.default()``."""
    batch_size = context.scale.zero_shot_trainer.batch_size
    scalers = fit_scalers(corpus_graphs)
    # Fixed ~15% validation split, mirroring TrainerConfig defaults.
    split = max(1, int(np.ceil(len(corpus_graphs) * 0.15)))
    validation, train = corpus_graphs[:split], corpus_graphs[split:]

    encoded_train = encode_graphs(train, scalers)
    validation_batch = merge_encoded(encode_graphs(validation, scalers),
                                     require_targets=True)
    assert len(validation_batch.roots) == split

    baseline = BatchIterator(train, batch_size,
                             rng=np.random.default_rng(0))
    one_pass = BatchIterator(encoded_train, batch_size,
                             rng=np.random.default_rng(0))
    assert len(baseline) == len(one_pass) > 1
    for graphs, encoded in zip(baseline, one_pass):
        _assert_bit_identical(
            merge_encoded(encode_graphs(graphs, scalers),
                          require_targets=True),
            merge_encoded(encoded, require_targets=True))


def test_merge_encoded_batch(context, corpus_graphs):
    """The per-mini-batch merge (the training hot path) batches one
    mini-batch of the default-scale corpus."""
    scalers = fit_scalers(corpus_graphs)
    encoded = encode_graphs(corpus_graphs, scalers)
    batch_size = context.scale.zero_shot_trainer.batch_size
    batch = merge_encoded(encoded[:batch_size])
    assert len(batch.roots) == min(batch_size, len(encoded))


# ----------------------------------------------------------------------
# Cost-model serving
#
# Callers historically predicted per plan: featurize + encode + a
# batch-of-one forward for every call.  repro.serve.CostModelService
# micro-batches the forwards and caches the per-plan encode precompute
# under an LRU bound; batch-size-invariant inference (repro.nn.tensor)
# makes the service's answers bit-identical to per-plan calls.
# ----------------------------------------------------------------------
def test_cost_model_service_matches_estimator(context, imdb,
                                              executed_plans):
    """Cold-cache, warm-cache and per-plan predictions of the zero-shot
    model at ``ExperimentScale.default()`` all equal the estimator's
    batched prediction, bit for bit."""
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


def test_cost_model_service_throughput(context, imdb, executed_plans):
    """A warm service at default scale answers every plan."""
    from repro.serve import CostModelService

    estimator = context.estimator(CardinalitySource.ESTIMATED)
    service = CostModelService(estimator, imdb)
    service.warm(executed_plans)

    predictions = service.predict_runtime(executed_plans)
    assert predictions.shape == (len(executed_plans),)


def test_planner_latency(imdb, queries):
    planner = Planner(imdb)
    plans = [planner.plan(q) for q in queries]
    assert len(plans) == len(queries)


def test_executor_throughput(imdb, executed_plans):
    executor = Executor(imdb)
    for plan in executed_plans:
        plan.reset_actuals()
        executor.execute(plan)
        plan.require_executed()


def test_runtime_simulation(imdb, executed_plans):
    simulator = RuntimeSimulator(imdb, noise_sigma=0.0)
    runtimes = [simulator.simulate(p).total_seconds for p in executed_plans]
    assert all(r > 0 for r in runtimes)


def test_featurization_throughput(imdb, executed_plans):
    featurizer = ZeroShotFeaturizer(CardinalitySource.ACTUAL)
    graphs = [featurizer.featurize(p, imdb) for p in executed_plans]
    assert len(graphs) == len(executed_plans)


def test_zero_shot_inference_latency(context, imdb, executed_plans):
    model = context.zero_shot_models[CardinalitySource.ACTUAL]
    featurizer = ZeroShotFeaturizer(CardinalitySource.ACTUAL)
    graphs = [featurizer.featurize(p, imdb) for p in executed_plans]

    predictions = model.predict_runtime(graphs)
    assert (predictions > 0).all()


def test_message_passing_forward(context, imdb, executed_plans):
    """One batched forward pass through the graph network."""
    model = context.zero_shot_models[CardinalitySource.ACTUAL]
    featurizer = ZeroShotFeaturizer(CardinalitySource.ACTUAL)
    graphs = [featurizer.featurize(p, imdb) for p in executed_plans]
    batch = merge_encoded(encode_graphs(graphs, model.scalers))

    with no_grad():
        out = model.net(batch)
    assert out.shape == (len(graphs),)
