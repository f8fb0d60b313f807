"""Shared model-test fixtures: a small labelled corpus on two databases
and the frozen plan set of the featurize goldens."""

import numpy as np
import pytest

from repro.db import (
    SyntheticDatabaseSpec,
    generate_database,
    make_imdb_database,
)
from repro.engine import execute_plan
from repro.featurize import CardinalitySource, ZeroShotFeaturizer
from repro.optimizer import plan_query
from repro.runtime import RuntimeSimulator
from repro.sql import parse_query
from repro.workload import make_benchmark_workload


def _simple_queries(db, count, seed):
    """Cheap ad-hoc workload: single-table ranges + FK joins."""
    rng = np.random.default_rng(seed)
    texts = []
    names = db.schema.table_names
    fks = db.schema.foreign_keys
    for _ in range(count):
        if fks and rng.random() < 0.5:
            fk = fks[int(rng.integers(0, len(fks)))]
            texts.append(
                f"SELECT COUNT(*) FROM {fk.child_table} c, {fk.parent_table} p "
                f"WHERE c.{fk.child_column} = p.{fk.parent_column} "
                f"AND p.id < {int(rng.integers(10, db.num_rows(fk.parent_table)))}"
            )
        else:
            name = names[int(rng.integers(0, len(names)))]
            cut = int(rng.integers(1, max(db.num_rows(name), 2)))
            texts.append(f"SELECT COUNT(*) FROM {name} x WHERE x.id < {cut}")
    return [parse_query(t) for t in texts]


def build_labelled_graphs(databases, queries_per_db, source, seed=0):
    featurizer = ZeroShotFeaturizer(source)
    graphs = []
    for db_index, db in enumerate(databases):
        simulator = RuntimeSimulator(db, rng=np.random.default_rng(seed + db_index))
        for query in _simple_queries(db, queries_per_db, seed + 91 * db_index):
            plan = plan_query(db, query)
            execute_plan(db, plan)
            runtime = simulator.simulate(plan)
            graphs.append(featurizer.featurize(plan, db, runtime.total_seconds))
    return graphs


@pytest.fixture(scope="module")
def training_dbs():
    return [
        generate_database(SyntheticDatabaseSpec(
            name=f"m{i}", seed=100 + i, num_tables=3 + (i % 3),
            min_rows=500, max_rows=4_000,
        ))
        for i in range(4)
    ]


@pytest.fixture(scope="module")
def labelled_graphs(training_dbs):
    return build_labelled_graphs(training_dbs, 50, CardinalitySource.ACTUAL)


@pytest.fixture(scope="module")
def golden_plans():
    """The plan set of ``tests/featurize/test_goldens.py``."""
    database = make_imdb_database(scale=0.04, seed=7)
    queries = (make_benchmark_workload(database, "scale", 4, seed=13) +
               make_benchmark_workload(database, "job-light", 4, seed=13))
    plans = [plan_query(database, query) for query in queries]
    for plan in plans:
        execute_plan(database, plan)
    return database, plans
