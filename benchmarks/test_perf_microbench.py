"""Acceptance gates for the compiled-filter / encode-once hot-loop pass.

Four gates, each measuring one optimized loop against the retained
reference path and asserting the outputs stay bit-identical:

1. fused compiled filters vs the interpreted ``predicate_mask`` walk on
   a filter-heavy scan workload (<=1/4 of the elements compared; counted,
   the wall-clock ratio is only printed);
2. an epoch's batch-merge loop with cached level plans vs per-step
   re-derivation (>=1.5x);
3. fragment priming with shared-subgraph dedup vs per-fragment encoding
   on a 5-way join (>=2x fewer encoder node-forwards);
4. the b64 inference forward on the rank-round row primitives vs the
   test-only reference forward (``tests/models/reference_forward.py``:
   ``np.add.at`` scatters, full-width adds) (>=2x).

Rounds are interleaved (same idiom as the join-kernel gate) so a load
spike hits both arms alike.
"""

import dataclasses
import importlib.util
import time
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
# Gate 1: fused filter evaluation compares <=1/4 of what interpreted does
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


def test_fused_filter_speedup(wide_table_db, filter_heavy_plans,
                              monkeypatch):
    """Acceptance gate: on every plan of a filter-heavy scan workload
    the compiled fused filters hand comparison kernels at most a quarter
    of the elements the interpreted walk does, bit-identical relations.
    The work is counted; the wall-clock ratio (about 2x) moves with the
    machine's load, so it is printed, not asserted."""
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

    def compiled_arm():
        for plan in filter_heavy_plans:
            compiled.execute(plan)

    def interpreted_arm():
        for plan in filter_heavy_plans:
            interpreted.execute(plan)

    best = {compiled_arm: float("inf"), interpreted_arm: float("inf")}
    for _ in range(9):
        for arm in (interpreted_arm, compiled_arm):
            start = time.perf_counter()
            arm()
            best[arm] = min(best[arm], time.perf_counter() - start)
    print(f"\ncompiled filters "
          f"{best[interpreted_arm] / best[compiled_arm]:.2f}x faster than "
          f"interpreted ({best[interpreted_arm] * 1e3:.1f} ms vs "
          f"{best[compiled_arm] * 1e3:.1f} ms)")
    assert compiled.filter_cache.hits > 0


# ----------------------------------------------------------------------
# Gate 2: cached level plans >=1.5x vs per-step re-derivation
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


def test_cached_level_plan_epoch_speedup(epoch_batches):
    """Acceptance gate: merging an epoch's fixed batches with cached
    level plans is >=1.5x per-step re-derivation, bit-identical."""
    cache = LevelPlanCache()

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

    def rederive_epoch():
        for batch in epoch_batches:
            merge_encoded(batch, require_targets=True)

    def cached_epoch():
        for batch in epoch_batches:
            merge_encoded(batch, require_targets=True, level_cache=cache)

    best = {rederive_epoch: float("inf"), cached_epoch: float("inf")}
    for _ in range(11):
        for epoch in (rederive_epoch, cached_epoch):
            start = time.perf_counter()
            epoch()
            best[epoch] = min(best[epoch], time.perf_counter() - start)

    speedup = best[rederive_epoch] / best[cached_epoch]
    assert speedup >= 1.5, (
        f"cached level plans only {speedup:.2f}x faster per epoch "
        f"({best[rederive_epoch] * 1e3:.1f} ms vs "
        f"{best[cached_epoch] * 1e3:.1f} ms)"
    )
    assert cache.hits > 0


# ----------------------------------------------------------------------
# Gate 3: subgraph dedup >=2x fewer encoder node-forwards (5-way join)
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


def _counting_estimator(database, estimator, **kwargs):
    """A LearnedCardinalityEstimator whose core model counts the plan
    graph nodes forwarded through ``predict_cardinalities_from_encoded``
    — the surface both the legacy per-fragment path and the dedup
    merged-graph path funnel through."""
    core = estimator.model
    counted = {"nodes": 0}
    original = core.predict_cardinalities_from_encoded

    def counting(encoded):
        counted["nodes"] += sum(graph.num_nodes for graph in encoded)
        return original(encoded)

    core.predict_cardinalities_from_encoded = counting
    learned = LearnedCardinalityEstimator(database, estimator, **kwargs)
    return learned, counted, core


def test_fragment_dedup_node_forward_reduction(five_way_setup):
    """Acceptance gate: priming a 5-way join's fragments through the
    shared-subgraph DAG forwards >=2x fewer encoder nodes than the
    per-fragment path, with bit-identical fragment estimates."""
    database, estimator, query = five_way_setup
    aliases = frozenset(query.table_names)

    legacy, legacy_counted, core = _counting_estimator(
        database, estimator, dedup_fragments=False)
    try:
        legacy.joined_rows(query, aliases)
    finally:
        del core.predict_cardinalities_from_encoded
    legacy_fragments = dict(legacy._cache.get(query))

    dedup, dedup_counted, core = _counting_estimator(
        database, estimator, dedup_fragments=True)
    try:
        dedup.joined_rows(query, aliases)
    finally:
        del core.predict_cardinalities_from_encoded
    dedup_fragments = dict(dedup._cache.get(query))

    assert legacy_fragments == dedup_fragments
    assert len(dedup_fragments) > 5  # scans + joined fragments primed

    reduction = legacy_counted["nodes"] / dedup_counted["nodes"]
    assert reduction >= 2.0, (
        f"subgraph dedup only cut node-forwards {reduction:.2f}x "
        f"({legacy_counted['nodes']} vs {dedup_counted['nodes']} nodes "
        f"for {len(dedup_fragments)} fragments)"
    )


# ----------------------------------------------------------------------
# Gate 4: rank-round forward >=2x the np.add.at reference forward (b64)
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


def test_rank_round_forward_speedup(epoch_batches):
    """Acceptance gate: one b64 inference forward of ``ZeroShotNet`` is
    >=2x the reference forward it replaced, bit-identical."""
    reference_forward = _reference_forward()
    encoded = [graph for batch in epoch_batches for graph in batch][:64]
    assert len(encoded) == 64
    batch = merge_encoded(encoded)
    net = ZeroShotNet(ZeroShotConfig(hidden_dim=64))
    net.eval()

    def reference_arm():
        with no_grad():
            return reference_forward(net, batch).numpy()

    def forward_arm():
        with no_grad():
            return net(batch).numpy()

    expected = reference_arm()
    assert np.array_equal(forward_arm(), expected)
    assert np.abs(expected).sum() > 0

    # One forward per sample: a load spike spoils one sample of one arm,
    # not the best of either.
    best = {reference_arm: float("inf"), forward_arm: float("inf")}
    for _ in range(60):
        for arm in (reference_arm, forward_arm):
            start = time.perf_counter()
            arm()
            best[arm] = min(best[arm], time.perf_counter() - start)

    speedup = best[reference_arm] / best[forward_arm]
    assert speedup >= 2.0, (
        f"rank-round forward only {speedup:.2f}x the reference forward "
        f"({best[reference_arm] * 1e3:.2f} ms vs "
        f"{best[forward_arm] * 1e3:.2f} ms)"
    )
