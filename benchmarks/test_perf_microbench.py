"""The compiled-filter / encode-once hot loops against their references.

Four checks, each running one optimized loop beside the retained
reference path: the outputs stay bit-identical, and where the saving
is work rather than time it is counted:

1. fused compiled filters vs the interpreted ``predicate_mask`` walk on
   a filter-heavy scan workload (<=1/4 of the elements compared);
2. an epoch's batch merges with cached level plans vs unshared
   per-step re-derivation;
3. fragment priming with shared-subgraph dedup vs each fragment's
   standalone plan, priced alone by the test-only reference
   (``tests/optimizer/fragment_reference.py``) on a 5-way join (>=2x
   fewer encoder node-forwards);
4. the b64 inference forward on the rank-round row primitives vs the
   test-only reference forward (``tests/models/reference_forward.py``:
   ``np.add.at`` scatters, full-width adds).

What the loops cost is measured by ``python3 -m bench``.
"""

import dataclasses
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.db import (
    Database,
    DataType,
    Schema,
    SyntheticDatabaseSpec,
    TableData,
    generate_database,
)
from repro.db.schema import Column, Table
from repro.engine import Executor, compiled_filters, execute_plan
from repro.engine import executor as executor_module
from repro.featurize import batch as batch_module
from repro.featurize import (
    CardinalitySource,
    LevelPlanCache,
    ZeroShotFeaturizer,
    encode_graphs,
    merge_encoded,
)
from repro.models import TrainerConfig, ZeroShotConfig, get_estimator
from repro.models.zero_shot import ZeroShotNet
from repro.nn import no_grad
from repro.optimizer import LearnedCardinalityEstimator, plan_query
from repro.plans import PhysicalPlan, SeqScan
from repro.sql.ast import (
    ColumnRef,
    ComparisonOperator,
    Predicate,
    Query,
    TableRef,
)
from repro.workload import WorkloadRunner, WorkloadSpec, generate_workload

pytestmark = pytest.mark.perf


# ----------------------------------------------------------------------
# 1: fused filter evaluation compares <=1/4 of what interpreted does
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def wide_table_db():
    """One wide table (400k rows, 6 columns) for filter-heavy scans."""
    num_rows = 400_000
    rng = np.random.default_rng(97)
    table = Table(
        name="events",
        columns=(
            Column("id", DataType.INTEGER),
            Column("kind", DataType.INTEGER),
            Column("bucket", DataType.INTEGER),
            Column("score", DataType.FLOAT),
            Column("weight", DataType.FLOAT),
            Column("amount", DataType.FLOAT),
        ),
        primary_key="id",
    )
    schema = Schema.from_tables("events-db", [table], [])
    data = TableData(
        table=table,
        columns={
            "id": np.arange(num_rows, dtype=np.int64),
            "kind": rng.integers(0, 50, num_rows).astype(np.int64),
            "bucket": rng.integers(0, 8, num_rows).astype(np.int64),
            "score": rng.uniform(0.0, 100.0, num_rows),
            "weight": rng.uniform(0.0, 1.0, num_rows),
            "amount": rng.uniform(-500.0, 500.0, num_rows),
        },
    )
    database = Database.from_tables("events-db", schema, {"events": data})
    database.analyze()
    return database


def _pred(column, op, value):
    return Predicate(ColumnRef("events", column), op, value)


@pytest.fixture(scope="module")
def filter_heavy_plans(wide_table_db):
    """Filter-heavy scans: 5-7 predicates each, led by a selective
    equality-class predicate — the dominant shape the corpus workload
    generator emits (75% of categorical predicates are EQ, IN lists are
    small, numeric EQ/BETWEEN literals come from histogram bounds).
    The compiled path's selectivity ordering + adaptive narrowing pays
    off exactly here; conjunctions with no selective predicate stay
    within a few percent of the interpreted path (covered by the
    equivalence suite, not a speedup target)."""
    C = ComparisonOperator
    filter_sets = [
        (_pred("kind", C.EQ, 7.0),
         _pred("score", C.BETWEEN, (10.0, 80.0)),
         _pred("weight", C.GEQ, 0.2),
         _pred("amount", C.GT, -450.0),
         _pred("bucket", C.LEQ, 6.0),
         _pred("id", C.LT, 390_000.0),
         _pred("weight", C.GT, 0.01),
         _pred("amount", C.LT, 495.0),
         _pred("score", C.GEQ, 2.0)),
        (_pred("id", C.BETWEEN, (100_000.0, 120_000.0)),
         _pred("kind", C.LT, 40.0),
         _pred("score", C.GEQ, 5.0),
         _pred("weight", C.LEQ, 0.95),
         _pred("bucket", C.GEQ, 1.0),
         _pred("amount", C.NEQ, 0.0),
         _pred("score", C.LT, 99.0),
         _pred("weight", C.GEQ, 0.01),
         _pred("amount", C.BETWEEN, (-480.0, 480.0))),
        (_pred("kind", C.IN, (3.0, 11.0, 42.0)),
         _pred("amount", C.GT, 0.0),
         _pred("score", C.LT, 60.0),
         _pred("weight", C.LEQ, 0.9),
         _pred("id", C.LT, 395_000.0),
         _pred("score", C.GEQ, 1.0),
         _pred("bucket", C.NEQ, 2.0)),
        (_pred("kind", C.EQ, 21.0),
         _pred("bucket", C.NEQ, 4.0),
         _pred("amount", C.BETWEEN, (-100.0, 250.0)),
         _pred("weight", C.LEQ, 0.9),
         _pred("score", C.GT, 1.0),
         _pred("amount", C.GT, -480.0),
         _pred("score", C.LT, 99.0),
         _pred("id", C.GEQ, 5_000.0)),
    ]
    plans = []
    for filters in filter_sets:
        scan = SeqScan(table=TableRef("events"), filters=filters)
        plans.append(PhysicalPlan(
            root=scan, query=Query(tables=(TableRef("events"),)),
            database_name=wide_table_db.name))
    return plans


def _assert_relations_equal(left, right):
    assert set(left.columns) == set(right.columns)
    for key in left.columns:
        np.testing.assert_array_equal(left.columns[key], right.columns[key])


def test_fused_filter_compares_a_quarter(wide_table_db, filter_heavy_plans,
                                        monkeypatch):
    """On every plan of a filter-heavy scan workload the compiled fused
    filters hand comparison kernels at most a quarter of the elements
    the interpreted walk does, bit-identical relations; a plan run again
    hits the filter cache."""
    compared = {"compiled": 0, "interpreted": 0}
    compile_predicate = compiled_filters.compile_predicate
    predicate_mask = executor_module.predicate_mask

    def counting_compile(predicate):
        compiled = compile_predicate(predicate)

        def kernel(values):
            compared["compiled"] += values.size
            return compiled.kernel(values)
        return dataclasses.replace(compiled, kernel=kernel)

    def counting_mask(values, null_mask, predicate):
        compared["interpreted"] += values.size
        return predicate_mask(values, null_mask, predicate)

    monkeypatch.setattr(compiled_filters, "compile_predicate",
                        counting_compile)
    monkeypatch.setattr(executor_module, "predicate_mask", counting_mask)
    compiled = Executor(wide_table_db)
    interpreted = Executor(wide_table_db, compile_filters=False)

    for plan in filter_heavy_plans:
        compared.update(compiled=0, interpreted=0)
        fused = compiled.execute(plan)
        oracle = interpreted.execute(plan)
        assert fused.root_rows == oracle.root_rows > 0
        _assert_relations_equal(fused.relation, oracle.relation)
        assert 0 < compared["compiled"] * 4 <= compared["interpreted"], (
            f"compiled filters compared {compared['compiled']} elements, "
            f"interpreted {compared['interpreted']}")
    # A plan run again reuses its compiled conjunction.
    _assert_relations_equal(compiled.execute(plan).relation, oracle.relation)
    assert compiled.filter_cache.hits > 0


# ----------------------------------------------------------------------
# 2: cached level plans merge what per-step re-derivation merges
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def epoch_batches(tiny_imdb_bench):
    """Fixed mini-batches of encoded graphs, as an epoch loop sees them."""
    queries = generate_workload(tiny_imdb_bench,
                                WorkloadSpec(num_queries=96, seed=29))
    featurizer = ZeroShotFeaturizer(CardinalitySource.ESTIMATED)
    graphs = []
    for query in queries:
        plan = plan_query(tiny_imdb_bench, query)
        execute_plan(tiny_imdb_bench, plan)
        graphs.append(featurizer.featurize(plan, tiny_imdb_bench,
                                           target_runtime_seconds=0.01))
    encoded = encode_graphs(graphs)
    batch_size = 32
    return [encoded[i:i + batch_size]
            for i in range(0, len(encoded), batch_size)]


@pytest.fixture(scope="module")
def tiny_imdb_bench():
    from repro.db import make_imdb_database
    return make_imdb_database(scale=0.04, seed=7)


def test_cached_level_plan_epoch_bit_identical(epoch_batches, monkeypatch):
    """Merging an epoch's fixed batches with cached level plans gives
    the batches of unshared per-step re-derivation, bit for bit, and a
    second epoch through the cache hits it."""
    cache = LevelPlanCache()

    with monkeypatch.context() as patch:
        patch.setattr(batch_module, "_SHARE_MIN_GRAPHS",
                      max(map(len, epoch_batches)) + 1)
        fresh = [merge_encoded(batch) for batch in epoch_batches]
    warm = [merge_encoded(batch, level_cache=cache)
            for batch in epoch_batches]
    for fresh_batch, warm_batch in zip(fresh, warm):
        assert fresh_batch.num_nodes == warm_batch.num_nodes
        np.testing.assert_array_equal(fresh_batch.roots, warm_batch.roots)
        for key in fresh_batch.features:
            np.testing.assert_array_equal(fresh_batch.features[key],
                                          warm_batch.features[key])
            np.testing.assert_array_equal(fresh_batch.type_positions[key],
                                          warm_batch.type_positions[key])
        np.testing.assert_array_equal(fresh_batch.targets,
                                      warm_batch.targets)
        for f_spec, w_spec in zip(fresh_batch.levels, warm_batch.levels):
            np.testing.assert_array_equal(f_spec.parent_ids,
                                          w_spec.parent_ids)
            np.testing.assert_array_equal(f_spec.edge_child_ids,
                                          w_spec.edge_child_ids)

    for batch in epoch_batches:
        merge_encoded(batch, require_targets=True, level_cache=cache)
    assert cache.hits > 0


# ----------------------------------------------------------------------
# 3: subgraph dedup >=2x fewer encoder node-forwards (5-way join)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def five_way_setup():
    database = generate_database(SyntheticDatabaseSpec(
        name="five-way", seed=53, num_tables=5, min_rows=300,
        max_rows=1_500,
    ))
    runner = WorkloadRunner(database, seed=3)
    records = runner.run(generate_workload(
        database, WorkloadSpec(num_queries=40, max_tables=5, seed=4)))
    estimator = get_estimator(
        "zero-shot-cardinality",
        config=ZeroShotConfig(hidden_dim=16, cardinality_head=True))
    estimator.fit(records, database, TrainerConfig(
        epochs=3, batch_size=16, early_stopping_patience=5))
    query = max((r.query for r in records), key=lambda q: len(q.tables))
    assert len(query.tables) == 5, "workload produced no 5-way join"
    return database, estimator, query


def _counting_estimator(database, estimator):
    """A LearnedCardinalityEstimator whose core model counts the plan
    graph nodes forwarded through ``predict_cardinalities_from_encoded``
    — the surface priming funnels through."""
    core = estimator.model
    counted = {"nodes": 0}
    original = core.predict_cardinalities_from_encoded

    def counting(encoded):
        counted["nodes"] += sum(graph.num_nodes for graph in encoded)
        return original(encoded)

    core.predict_cardinalities_from_encoded = counting
    learned = LearnedCardinalityEstimator(database, estimator)
    return learned, counted, core


def _fragment_reference():
    """The optimizer tests' per-fragment reference module (loaded by
    path, like :func:`_reference_forward`)."""
    path = (Path(__file__).resolve().parents[1] / "tests" / "optimizer"
            / "fragment_reference.py")
    spec = importlib.util.spec_from_file_location("fragment_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fragment_dedup_node_forward_reduction(five_way_setup):
    """Acceptance gate: priming a 5-way join's fragments through the
    shared-subgraph DAG forwards >=2x fewer encoder nodes than the
    fragments' standalone plans hold, featurized one by one, with
    estimates bit-identical to pricing each of those plans alone."""
    database, estimator, query = five_way_setup
    reference = _fragment_reference()

    learned, counted, core = _counting_estimator(database, estimator)
    try:
        learned.joined_rows(query, frozenset(query.table_names))
    finally:
        del core.predict_cardinalities_from_encoded
    primed = dict(learned._cache.get(query))

    assert primed == reference.reference_fragments(learned, query)
    assert len(primed) > 5  # scans + joined fragments primed

    featurizer = ZeroShotFeaturizer(CardinalitySource.ESTIMATED)
    standalone = sum(
        featurizer.featurize(plan, database).num_nodes
        for plan in reference.fragment_plans(learned, query).values())
    reduction = standalone / counted["nodes"]
    assert reduction >= 2.0, (
        f"subgraph dedup only cut node-forwards {reduction:.2f}x "
        f"({standalone} vs {counted['nodes']} nodes "
        f"for {len(primed)} fragments)"
    )


# ----------------------------------------------------------------------
# 4: rank-round forward == the np.add.at reference forward (b64)
# ----------------------------------------------------------------------
def _reference_forward():
    """``reference_forward`` of the model tests' oracle module (test
    directories are not packages, so it is loaded by path)."""
    path = (Path(__file__).resolve().parents[1] / "tests" / "models"
            / "reference_forward.py")
    spec = importlib.util.spec_from_file_location("reference_forward", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.reference_forward


def test_rank_round_forward_matches_reference(epoch_batches):
    """One b64 inference forward of ``ZeroShotNet`` equals the reference
    forward it replaced, bit for bit, and is not all zeros."""
    reference_forward = _reference_forward()
    encoded = [graph for batch in epoch_batches for graph in batch][:64]
    assert len(encoded) == 64
    batch = merge_encoded(encoded)
    net = ZeroShotNet(ZeroShotConfig(hidden_dim=64))
    net.eval()

    with no_grad():
        expected = reference_forward(net, batch)
        assert np.array_equal(net(batch), expected)
    assert np.abs(expected).sum() > 0
