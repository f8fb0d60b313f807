"""Multi-database training corpus assembly.

``collect_training_corpus`` runs a random workload on every training
database — optionally after creating a random but fixed set of indexes
per database, exactly as the paper does for what-if/index training
(§4.1: "we additionally created a random but fixed set of indexes per
database before running the training queries").

``collect_training_corpus_from_specs`` is the sharded path: it takes
cheap database *specs* instead of materialized databases, builds one
:class:`~repro.workload.backends.CorpusShard` per spec with
deterministic per-shard seeds, and runs them through an
:class:`~repro.workload.backends.ExecutionBackend` — serially by
default, or across worker processes.  With a shard-capable store,
already-executed shards are loaded from disk instead of re-run, so
growing a fleet only executes the new databases' workloads.
"""

from __future__ import annotations

import json
import os
import pickle
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.db.database import Database
from repro.db.generator import SyntheticDatabaseSpec
from repro.errors import WorkloadError
from repro.featurize.graph import CardinalitySource, PlanGraph, ZeroShotFeaturizer
from repro.runtime import SystemParameters
from repro.workload.backends import (
    ExecutionBackend,
    SerialBackend,
    ShardExecution,
    SystemAssignment,
    make_corpus_shards,
)
from repro.workload.generator import WorkloadSpec, generate_workload
from repro.workload.runner import ExecutedQueryRecord, WorkloadRunner

if TYPE_CHECKING:  # pragma: no cover - avoid an import cycle
    from repro.experiments.cache import ArtifactStore

__all__ = [
    "TrainingCorpus",
    "collect_training_corpus",
    "collect_training_corpus_from_specs",
    "create_random_indexes",
]

#: Bump when the on-disk corpus layout changes shape.
#: v3: records carry per-operator ``operator_cardinalities`` labels
#: (see :data:`repro.workload.runner.RECORD_SCHEMA_VERSION`); older
#: corpora lack them and must be re-collected, not silently loaded.
#: v4: every shard file carries its ``"system"`` (the hardware axis).
_CORPUS_FORMAT = 4
_MANIFEST_NAME = "manifest.json"
_SHARDS_DIR = "shards"


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

    def system_for(self, name: str) -> SystemParameters:
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
                  with_cardinalities: bool = False,
                  system_features: bool = False) -> list[PlanGraph]:
        """Labelled plan graphs for training a zero-shot model.

        ``database_names`` restricts the corpus (used by the
        learning-curve experiment E5).  ``target`` selects the label:
        ``"runtime"`` (seconds), or the §4.3 resource-prediction targets
        ``"memory"`` (peak working-memory bytes) and ``"io"`` (pages
        read) — the same transferable encoding serves all of them.

        ``with_cardinalities=True`` additionally attaches each record's
        per-operator :attr:`~repro.workload.runner.ExecutedQueryRecord.\
operator_cardinalities` as per-node labels, the supervision of the
        multi-task cardinality head.

        ``system_features=True`` attaches each database's machine (see
        :meth:`system_for`) as a ``system`` node, so a multi-machine
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
            system = self.system_for(name) if system_features else None
            for record in self.records_by_database[name]:
                if target == "runtime":
                    label = record.runtime_seconds
                elif target == "memory":
                    label = record.memory_peak_bytes + 1.0
                else:
                    label = record.io_pages + 1.0
                cardinalities = None
                if with_cardinalities:
                    cardinalities = record.operator_cardinalities
                    if not cardinalities:
                        raise WorkloadError(
                            f"record on {name!r} has no operator "
                            f"cardinalities; the corpus predates record "
                            f"schema v2 — re-collect it"
                        )
                graphs.append(featurizer.featurize(
                    record.plan, database, label,
                    operator_cardinalities=cardinalities,
                    system=system,
                ))
        return graphs

    # ------------------------------------------------------------------
    # Persistence (the experiment artifact store round-trips corpora so
    # the one-time training-data collection really happens one time).
    #
    # The on-disk form is a directory of per-database shards: loading
    # one database's records (``load_shard``) unpickles one small file,
    # not the whole fleet.
    # ------------------------------------------------------------------
    def save(self, path: str | os.PathLike) -> None:
        """Serialize the corpus to the directory ``path``.

        Layout::

            <path>/manifest.json          # name -> shard file, in order
            <path>/shards/shard-0000.pkl  # one database + its records

        Each shard file pickles its database together with its records,
        preserving shared object identity within the shard.
        """
        root = Path(path)
        shards_dir = root / _SHARDS_DIR
        shards_dir.mkdir(parents=True, exist_ok=True)
        manifest = {"format": _CORPUS_FORMAT, "shards": []}
        for index, name in enumerate(self.records_by_database):
            file_name = f"shard-{index:04d}.pkl"
            with open(shards_dir / file_name, "wb") as handle:
                pickle.dump({
                    "name": name,
                    "database": self.databases[name],
                    "records": self.records_by_database[name],
                    "system": self.systems.get(name),
                }, handle, protocol=pickle.HIGHEST_PROTOCOL)
            manifest["shards"].append({"name": name, "file": file_name})
        with open(root / _MANIFEST_NAME, "w") as handle:
            json.dump(manifest, handle, indent=2)

    @staticmethod
    def _read_manifest(root: Path) -> dict:
        try:
            with open(root / _MANIFEST_NAME) as handle:
                manifest = json.load(handle)
        except (OSError, json.JSONDecodeError) as error:
            raise WorkloadError(
                f"{root!s} is not a saved TrainingCorpus: {error}"
            ) from None
        if manifest.get("format") != _CORPUS_FORMAT:
            raise WorkloadError(
                f"unsupported corpus format {manifest.get('format')!r} "
                f"in {root!s} (expected {_CORPUS_FORMAT})"
            )
        return manifest

    @classmethod
    def _load_shard_file(
            cls, path: Path, name: str
    ) -> tuple[Database, list[ExecutedQueryRecord], SystemParameters | None]:
        with open(path, "rb") as handle:
            payload = pickle.load(handle)
        if not isinstance(payload, dict) or payload.get("name") != name:
            raise WorkloadError(
                f"corpus shard {path!s} does not contain database {name!r}"
            )
        return payload["database"], payload["records"], payload["system"]

    @classmethod
    def load_shard(cls, path: str | os.PathLike, name: str
                   ) -> tuple[Database, list[ExecutedQueryRecord]]:
        """Load one database's shard without touching the rest."""
        root = Path(path)
        manifest = cls._read_manifest(root)
        for entry in manifest["shards"]:
            if entry["name"] == name:
                database, records, _ = cls._load_shard_file(
                    root / _SHARDS_DIR / entry["file"], name)
                return database, records
        raise WorkloadError(f"corpus at {root!s} has no database {name!r}")

    @classmethod
    def load(cls, path: str | os.PathLike) -> "TrainingCorpus":
        """Load a corpus saved by :meth:`save`."""
        root = Path(path)
        manifest = cls._read_manifest(root)
        corpus = cls()
        for entry in manifest["shards"]:
            database, records, system = cls._load_shard_file(
                root / _SHARDS_DIR / entry["file"], entry["name"])
            corpus.records_by_database[entry["name"]] = records
            corpus.databases[entry["name"]] = database
            if system is not None:
                corpus.systems[entry["name"]] = system
        return corpus


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


def collect_training_corpus(databases: list[Database],
                            queries_per_database: int,
                            seed: int = 0,
                            random_indexes_per_database: int = 0,
                            workload_spec: WorkloadSpec | None = None,
                            system: SystemParameters | None = None,
                            noise_sigma: float = 0.06) -> TrainingCorpus:
    """Run a training workload on every database; return the corpus.

    This is the paper's one-time training-data collection effort.
    """
    if not databases:
        raise WorkloadError("need at least one training database")
    if queries_per_database <= 0:
        raise WorkloadError("queries_per_database must be positive")
    corpus = TrainingCorpus()
    rng = np.random.default_rng(seed)
    for database in databases:
        if random_indexes_per_database > 0:
            create_random_indexes(database, random_indexes_per_database, rng)
        spec = workload_spec or WorkloadSpec(
            num_queries=queries_per_database,
            seed=int(rng.integers(0, 2**31 - 1)),
        )
        if spec.num_queries != queries_per_database:
            spec = WorkloadSpec(
                num_queries=queries_per_database,
                max_tables=spec.max_tables,
                max_predicates=spec.max_predicates,
                max_aggregates=spec.max_aggregates,
                group_by_probability=spec.group_by_probability,
                count_star_probability=spec.count_star_probability,
                seed=int(rng.integers(0, 2**31 - 1)),
            )
        queries = generate_workload(database, spec)
        machine = system or SystemParameters()
        runner = WorkloadRunner(
            database,
            system=machine,
            noise_sigma=noise_sigma,
            seed=int(rng.integers(0, 2**31 - 1)),
        )
        corpus.records_by_database[database.name] = runner.run(queries)
        corpus.databases[database.name] = database
        corpus.systems[database.name] = machine
    return corpus


def collect_training_corpus_from_specs(
        specs: list[SyntheticDatabaseSpec],
        queries_per_database: int,
        seed: int = 0,
        random_indexes_per_database: int = 0,
        workload_spec: WorkloadSpec | None = None,
        system: SystemAssignment = None,
        noise_sigma: float = 0.06,
        backend: ExecutionBackend | None = None,
        store: "ArtifactStore | None" = None) -> TrainingCorpus:
    """Sharded corpus collection: one unit of work per database spec.

    Every shard's seeds derive from ``(seed, shard_index)`` alone, so
    the corpus is **record-identical** whichever backend runs it and
    however many databases the fleet has.  With a ``store``, shards
    already on disk are loaded instead of executed, and freshly
    executed shards are persisted — growing a fleet from 8 to 12
    databases executes exactly 4 shards.

    ``system`` assigns machines across the fleet (single machine,
    round-robin sequence, or per-database map — see
    :func:`~repro.workload.backends.resolve_system_assignment`).  A
    shard's machine is part of its recipe, so the same fleet collected
    on different hardware caches independently.
    """
    if not specs:
        raise WorkloadError("need at least one training database spec")
    if queries_per_database <= 0:
        raise WorkloadError("queries_per_database must be positive")
    names = [spec.name for spec in specs]
    if len(set(names)) != len(names):
        raise WorkloadError("database spec names must be unique")
    backend = backend or SerialBackend()
    shards = make_corpus_shards(
        specs, queries_per_database, seed=seed,
        random_indexes_per_database=random_indexes_per_database,
        workload_spec=workload_spec, system=system, noise_sigma=noise_sigma,
    )

    executions: dict[int, ShardExecution] = {}
    pending: list[tuple[int, "CorpusShard"]] = []
    for index, shard in enumerate(shards):
        cached = store.load_shard(shard) if store is not None else None
        if cached is not None:
            executions[index] = cached
        else:
            pending.append((index, shard))
    if pending:
        fresh = backend.run([shard for _, shard in pending])
        for (index, _), execution in zip(pending, fresh):
            if store is not None:
                store.save_shard(execution)
            executions[index] = execution

    corpus = TrainingCorpus()
    for index in range(len(shards)):
        execution = executions[index]
        corpus.records_by_database[execution.database.name] = execution.records
        corpus.databases[execution.database.name] = execution.database
        corpus.systems[execution.database.name] = execution.shard.system
    return corpus
