"""Shared fixtures: small databases reused across the test suite."""

import os

import numpy as np
import pytest

from repro.db import (
    Database,
    DataType,
    Schema,
    SyntheticDatabaseSpec,
    TableData,
    generate_database,
    make_imdb_database,
)
from repro.db.schema import Column, ForeignKey, Table


@pytest.fixture(scope="session", autouse=True)
def _force_in_process_collection():
    """Pin corpus collection to one in-process worker for unit tests.

    An ambient ``REPRO_WORKERS`` must not switch the suite onto the
    process pool: unit tests want deterministic, single-process
    execution (tests that exercise the pool pass ``workers=2``
    explicitly).
    """
    previous = os.environ.get("REPRO_WORKERS")
    os.environ["REPRO_WORKERS"] = "1"
    yield
    if previous is None:
        os.environ.pop("REPRO_WORKERS", None)
    else:
        os.environ["REPRO_WORKERS"] = previous


@pytest.fixture(scope="session", autouse=True)
def _isolated_artifact_cache(tmp_path_factory):
    """Point the artifact store at a per-session scratch directory.

    Tier-1 runs must never read a stale user-level cache (a context
    pickled by older code could silently mask a regression), and must
    never pollute ``~/.cache/repro`` either.
    """
    scratch = tmp_path_factory.mktemp("repro-artifact-cache")
    previous = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(scratch)
    yield
    if previous is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = previous


@pytest.fixture()
def executed_names(monkeypatch):
    """Names of the databases whose shards ``execute_shard`` ran during
    the test, in order — how a test counts (or forbids) executions."""
    from repro.workload import backends
    from repro.workload.backends import execute_shard

    names = []

    def counting(shard):
        names.append(shard.database_spec.name)
        return execute_shard(shard)

    monkeypatch.setattr(backends, "execute_shard", counting)
    return names


@pytest.fixture(scope="session")
def tiny_imdb():
    """A small IMDB-shaped database (≈8k rows), analyzed, with PK indexes."""
    return make_imdb_database(scale=0.04, seed=7)


@pytest.fixture(scope="session")
def small_synthetic_db():
    """One small synthetic training database."""
    spec = SyntheticDatabaseSpec(
        name="synth", seed=11, num_tables=4, min_rows=300, max_rows=2_000
    )
    return generate_database(spec)


@pytest.fixture()
def two_table_db():
    """A hand-built two-table database with known contents.

    parent(id, value): 100 rows, value = id % 10
    child(id, parent_id, amount): 500 rows, parent_id = id % 100,
    amount = id (float).
    """
    parent = Table(
        name="parent",
        columns=(Column("id", DataType.INTEGER),
                 Column("value", DataType.INTEGER)),
        primary_key="id",
    )
    child = Table(
        name="child",
        columns=(Column("id", DataType.INTEGER),
                 Column("parent_id", DataType.INTEGER),
                 Column("amount", DataType.FLOAT)),
        primary_key="id",
    )
    schema = Schema.from_tables(
        "toy", [parent, child],
        [ForeignKey("child", "parent_id", "parent", "id")],
    )
    parent_data = TableData(
        table=parent,
        columns={
            "id": np.arange(100, dtype=np.int64),
            "value": np.arange(100, dtype=np.int64) % 10,
        },
    )
    child_data = TableData(
        table=child,
        columns={
            "id": np.arange(500, dtype=np.int64),
            "parent_id": np.arange(500, dtype=np.int64) % 100,
            "amount": np.arange(500, dtype=np.float64),
        },
    )
    database = Database.from_tables(
        "toy", schema, {"parent": parent_data, "child": child_data}
    )
    database.create_index("parent_pkey", "parent", "id", unique=True)
    database.analyze()
    return database
