"""Cross-module integration and property tests.

The key invariant of the whole substrate: *every* physical plan for a
query computes the same result — join strategy, join order and access
paths change the cost, never the answer.  Hypothesis drives the workload
generator over a small database and checks this end to end, plus
structural invariants of the plans and the featurization.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import SyntheticDatabaseSpec, generate_database
from repro.engine import Executor, execute_plan
from repro.featurize import (
    CardinalitySource,
    ZeroShotFeaturizer,
    encode_graphs,
    merge_encoded,
)
from repro.optimizer import plan_query
from repro.optimizer.planner import PlannerOptions
from repro.plans import explain_plan
from repro.plans.plan import plan_signature
from repro.runtime import RuntimeSimulator
from repro.sql import parse_query, query_to_sql, validate_query
from repro.workload import WorkloadSpec, generate_workload

# One shared small database for all property tests (module-level so
# hypothesis examples do not regenerate it).
_DB = generate_database(SyntheticDatabaseSpec(
    name="prop", seed=2024, num_tables=4, min_rows=200, max_rows=1_500,
))
_DB.create_index("rnd0", "t1", "t0_id")

_PLAN_VARIANTS = (
    PlannerOptions(),
    PlannerOptions(enable_hashjoin=False),
    PlannerOptions(enable_nestloop=False),
    PlannerOptions(enable_indexscan=False),
)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_all_plans_agree_on_count(seed):
    """Property: every plan variant returns the same COUNT(*)."""
    query = generate_workload(_DB, WorkloadSpec(
        num_queries=1, seed=seed, count_star_probability=1.0,
        group_by_probability=0.0,
    ))[0]
    results = set()
    for options in _PLAN_VARIANTS:
        plan = plan_query(_DB, query, options)
        results.add(execute_plan(_DB, plan).scalar())
    assert len(results) == 1


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_sql_roundtrip_preserves_semantics(seed):
    """Property: to-SQL then parse yields an equivalent query."""
    query = generate_workload(_DB, WorkloadSpec(num_queries=1, seed=seed))[0]
    reparsed = parse_query(query_to_sql(query))
    validate_query(_DB.schema, reparsed)
    plan_a = plan_query(_DB, query)
    plan_b = plan_query(_DB, reparsed)
    count_a = execute_plan(_DB, plan_a).root_rows
    count_b = execute_plan(_DB, plan_b).root_rows
    assert count_a == count_b


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_cumulative_cost_monotone_towards_root(seed):
    """Property: the optimizer's cumulative cost never decreases from
    child to parent (it includes the children's costs)."""
    query = generate_workload(_DB, WorkloadSpec(num_queries=1, seed=seed))[0]
    plan = plan_query(_DB, query)
    for node in plan.nodes():
        for child in node.children:
            assert node.est_cost >= child.est_cost - 1e-9


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_featurization_and_simulation_total_pipeline(seed):
    """Property: plan -> execute -> simulate -> featurize never fails and
    produces consistent graph structure for generated queries."""
    query = generate_workload(_DB, WorkloadSpec(num_queries=1, seed=seed))[0]
    plan = plan_query(_DB, query)
    execute_plan(_DB, plan)
    runtime = RuntimeSimulator(_DB, noise_sigma=0.0).simulate(plan)
    assert runtime.total_seconds > 0
    graph = ZeroShotFeaturizer(CardinalitySource.ACTUAL).featurize(
        plan, _DB, runtime.total_seconds
    )
    ops = sum(1 for t in graph.node_type_of if t == "plan_op")
    assert ops == plan.num_nodes
    batch = merge_encoded(encode_graphs([graph]))
    assert batch.num_nodes == graph.num_nodes


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_estimates_are_finite_and_positive(seed):
    query = generate_workload(_DB, WorkloadSpec(num_queries=1, seed=seed))[0]
    plan = plan_query(_DB, query)
    for node in plan.nodes():
        assert np.isfinite(node.est_rows) and node.est_rows >= 0
        assert np.isfinite(node.est_cost) and node.est_cost >= 0
        assert np.isfinite(node.est_width) and node.est_width > 0


class TestExplainOutput:
    def test_explain_contains_all_operators(self, tiny_imdb):
        plan = plan_query(tiny_imdb, parse_query(
            "SELECT COUNT(*) FROM title t, cast_info ci "
            "WHERE t.id = ci.movie_id AND ci.role_id = 1"
        ))
        text = explain_plan(plan)
        assert "Aggregate" in text
        assert "Join" in text
        assert "est_rows" in text
        execute_plan(tiny_imdb, plan)
        analyzed = explain_plan(plan)
        assert "actual_rows" in analyzed
        assert "time=" in analyzed

    def test_explain_accepts_bare_nodes(self, tiny_imdb):
        plan = plan_query(tiny_imdb, parse_query("SELECT COUNT(*) FROM title t"))
        assert explain_plan(plan.root)


def _frozen(value):
    """A comparable copy, bit for bit: arrays and floats as bytes,
    containers and objects item by item."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, float):
        return np.float64(value).tobytes()
    if isinstance(value, dict):
        return tuple((key, _frozen(item)) for key, item in value.items())
    if isinstance(value, (list, tuple)):
        return tuple(_frozen(item) for item in value)
    if hasattr(value, "__dict__"):
        return _frozen(vars(value))
    return value


class TestOperatorTime:
    """``actual_ms`` is a measurement only: the executor sets it on every
    node, inclusive of the node's inputs, and no signature, label,
    graph or encoding reads it."""

    def test_signatures_labels_and_features_ignore_it(self):
        queries = generate_workload(_DB, WorkloadSpec(num_queries=12, seed=7))
        featurizer = ZeroShotFeaturizer(CardinalitySource.ACTUAL)
        simulator = RuntimeSimulator(_DB, noise_sigma=0.0)
        for query in queries:
            plan = plan_query(_DB, query)
            Executor(_DB).execute(plan)
            nodes = plan.nodes()
            for node in nodes:
                assert node.actual_ms >= max(
                    (child.actual_ms for child in node.children), default=0)
            observed = []
            for _ in range(2):
                runtime = simulator.simulate(plan)
                graph = featurizer.featurize(plan, _DB, runtime.total_seconds)
                observed.append(_frozen((
                    plan_signature(plan.root), runtime.total_seconds,
                    [runtime.seconds_for(node) for node in nodes],
                    runtime.memory_peak_bytes, runtime.io_pages,
                    graph, encode_graphs([graph])[0])))
                for node in nodes:
                    node.actual_ms = None
            assert observed[0] == observed[1]


class TestDeterminismEndToEnd:
    def test_full_pipeline_bitwise_deterministic(self):
        """Two identical runs of generate->plan->execute->simulate->
        featurize produce identical labels and features."""
        outputs = []
        for _ in range(2):
            db = generate_database(SyntheticDatabaseSpec(
                name="det", seed=5, num_tables=3, min_rows=200, max_rows=800,
            ))
            queries = generate_workload(db, WorkloadSpec(num_queries=5, seed=9))
            simulator = RuntimeSimulator(db, rng=np.random.default_rng(1))
            run = []
            featurizer = ZeroShotFeaturizer(CardinalitySource.ACTUAL)
            for query in queries:
                plan = plan_query(db, query)
                Executor(db).execute(plan)
                runtime = simulator.simulate(plan)
                graph = featurizer.featurize(plan, db, runtime.total_seconds)
                run.append((runtime.total_seconds,
                            graph.feature_matrix("plan_op").sum()))
            outputs.append(run)
        for (rt_a, f_a), (rt_b, f_b) in zip(*outputs):
            assert rt_a == rt_b
            assert f_a == f_b
