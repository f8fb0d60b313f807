"""Multi-database training corpus assembly.

``collect_training_corpus`` runs a random workload on every training
database — optionally after creating a random but fixed set of indexes
per database, exactly as the paper does for what-if/index training
(§4.1: "we additionally created a random but fixed set of indexes per
database before running the training queries").

It takes cheap database *specs*, not materialized databases, builds one
:class:`~repro.workload.backends.CorpusShard` per spec with
deterministic per-shard seeds, and runs them through
:func:`~repro.workload.backends.run_shards` — in-process by default, or
across worker processes.  With a shard-capable store, already-executed
shards are loaded from disk instead of re-run, so growing a fleet only
executes the new databases' workloads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.db.database import Database
from repro.db.generator import SyntheticDatabaseSpec
from repro.errors import WorkloadError
from repro.featurize.graph import CardinalitySource, PlanGraph, ZeroShotFeaturizer
from repro.runtime import SystemParameters
from repro.workload.backends import (
    ShardExecution,
    make_corpus_shards,
    resolve_workers,
    run_shards,
)
from repro.workload.runner import ExecutedQueryRecord

if TYPE_CHECKING:  # pragma: no cover - avoid an import cycle
    from repro.experiments.cache import ArtifactStore

__all__ = [
    "TrainingCorpus",
    "collect_training_corpus",
    "create_random_indexes",
]


@dataclass
class TrainingCorpus:
    """Executed workloads across the training fleet."""

    records_by_database: dict[str, list[ExecutedQueryRecord]] = \
        field(default_factory=dict)
    databases: dict[str, Database] = field(default_factory=dict)
    #: The machine each database's workload was executed on — the
    #: hardware axis of the fleet.  Databases absent from the map ran on
    #: the stock machine (every corpus collected before the axis existed).
    systems: dict[str, SystemParameters] = field(default_factory=dict)

    def _system_for(self, name: str) -> SystemParameters:
        """The machine ``name``'s records were executed on."""
        return self.systems.get(name) or SystemParameters()

    @property
    def num_queries(self) -> int:
        return sum(len(r) for r in self.records_by_database.values())

    @property
    def num_databases(self) -> int:
        return len(self.records_by_database)

    def all_records(self) -> list[ExecutedQueryRecord]:
        return [record for records in self.records_by_database.values()
                for record in records]

    def featurize(self, source: CardinalitySource,
                  database_names: list[str] | None = None,
                  target: str = "runtime",
                  system_features: bool = False) -> list[PlanGraph]:
        """Labelled plan graphs for training a zero-shot model.

        ``database_names`` restricts the corpus (used by the
        learning-curve experiment E5).  ``target`` selects the label:
        ``"runtime"`` (seconds), or the §4.3 resource-prediction targets
        ``"memory"`` (peak working-memory bytes) and ``"io"`` (pages
        read) — the same transferable encoding serves all of them.

        ``system_features=True`` attaches each database's machine (see
        :meth:`_system_for`) as a ``system`` node, so a multi-machine
        corpus trains a hardware-aware model.  Off (the default), the
        encoding is bit-identical to the hardware-blind one.
        """
        if target not in ("runtime", "memory", "io"):
            raise WorkloadError(
                f"unknown target {target!r}; choose runtime, memory or io"
            )
        featurizer = ZeroShotFeaturizer(source,
                                        system_features=system_features)
        graphs = []
        names = database_names or list(self.records_by_database)
        for name in names:
            if name not in self.records_by_database:
                raise WorkloadError(f"no records for database {name!r}")
            database = self.databases[name]
            system = self._system_for(name) if system_features else None
            for record in self.records_by_database[name]:
                if target == "runtime":
                    label = record.runtime_seconds
                elif target == "memory":
                    label = record.memory_peak_bytes + 1.0
                else:
                    label = record.io_pages + 1.0
                graphs.append(featurizer.featurize(
                    record.plan, database, label, system=system))
        return graphs


def create_random_indexes(database: Database, count: int,
                          rng: np.random.Generator) -> list[str]:
    """Create a random but fixed set of single-column indexes.

    Indexes go on non-PK numeric/categorical attribute columns and on FK
    columns (realistic targets), so training plans contain index scans
    and index nested-loop joins.
    """
    candidates: list[tuple[str, str]] = []
    for fk in database.schema.foreign_keys:
        candidates.append((fk.child_table, fk.child_column))
    for table_name in database.schema.table_names:
        table = database.schema.table(table_name)
        for column in table.columns:
            if column.name == table.primary_key:
                continue
            candidates.append((table_name, column.name))
    rng.shuffle(candidates)
    created = []
    for table_name, column_name in candidates:
        if len(created) >= count:
            break
        if database.indexes_on(table_name, column_name):
            continue
        name = f"rnd_{table_name}_{column_name}"
        database.create_index(name, table_name, column_name)
        created.append(name)
    return created


def collect_training_corpus(
        specs: list[SyntheticDatabaseSpec],
        queries_per_database: int,
        seed: int = 0,
        random_indexes_per_database: int = 0,
        system: Sequence[str] = ("default",),
        noise_sigma: float = 0.06,
        workers: int | None = None,
        store: "ArtifactStore | None" = None) -> TrainingCorpus:
    """Run a training workload on every database; return the corpus.

    This is the paper's one-time training-data collection effort, one
    unit of work per database spec.  Every shard's seeds derive from
    ``(seed, shard_index)`` alone, so the corpus is **record-identical**
    however many ``workers`` run it (see
    :func:`~repro.workload.backends.resolve_workers`) and however many
    databases the fleet has.  With a ``store``, shards already on disk
    are loaded instead of executed, and freshly executed shards are
    persisted — growing a fleet from 8 to 12 databases executes exactly
    4 shards.

    ``system`` names the fleet's machines, assigned round-robin across
    the databases (see
    :func:`~repro.workload.backends.make_corpus_shards`).  A shard's
    machine is part of its recipe, so the same fleet collected on
    different hardware caches independently.
    """
    workers = resolve_workers(workers)  # before any shard is loaded or run
    if not specs:
        raise WorkloadError("need at least one training database spec")
    if queries_per_database <= 0:
        raise WorkloadError("queries_per_database must be positive")
    names = [spec.name for spec in specs]
    if len(set(names)) != len(names):
        raise WorkloadError("database spec names must be unique")
    shards = make_corpus_shards(
        specs, queries_per_database, seed=seed,
        random_indexes_per_database=random_indexes_per_database,
        system=system, noise_sigma=noise_sigma,
    )

    executions: list[ShardExecution | None] = [
        store.load_shard(shard) if store is not None else None
        for shard in shards]
    pending = [index for index, execution in enumerate(executions)
               if execution is None]
    fresh = run_shards([shards[index] for index in pending], workers)
    for index, execution in zip(pending, fresh):
        if store is not None:
            store.save_shard(execution)
        executions[index] = execution

    corpus = TrainingCorpus()
    for execution in executions:
        name = execution.database.name
        corpus.records_by_database[name] = execution.records
        corpus.databases[name] = execution.database
        corpus.systems[name] = execution.shard.system
    return corpus
