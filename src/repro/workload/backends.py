"""Sharded training-corpus collection: the shards and what runs them.

The paper's dominant one-time cost is executing training workloads
across a fleet of ~20 heterogeneous databases.  This module splits that
work into independent, picklable **shards** — one per training database
— and runs them through :func:`run_shards`: in-process, one after
another (the default, and what unit tests pin themselves to), or fanned
out to worker processes.

A shard is self-contained: it carries the
:class:`~repro.db.generator.SyntheticDatabaseSpec` (hydrated on demand
via :func:`~repro.db.generator.generate_database`), the workload spec,
and explicit seeds for index creation and the runner.  Seeds are
derived per shard from the base seed and the shard's position alone —
never from shared generator state — so

* any number of workers produces a **record-identical** corpus,
* shard ``i``'s results do not depend on the fleet size, which lets the
  per-shard artifact cache reuse shards when a fleet grows.

``REPRO_WORKERS`` sets the worker count ambiently (``1`` or unset →
in-process); :func:`resolve_workers` is the single resolution point.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.db.database import Database
from repro.db.generator import SyntheticDatabaseSpec, generate_database
from repro.errors import ExperimentError
from repro.runtime import SystemParameters, get_system_config
from repro.sql.ast import Query
from repro.workload.generator import WorkloadSpec, generate_workload
from repro.workload.runner import ExecutedQueryRecord, WorkloadRunner

__all__ = [
    "CorpusShard",
    "ShardExecution",
    "WORKERS_ENV",
    "execute_shard",
    "make_corpus_shards",
    "resolve_workers",
    "run_shards",
    "shard_seeds",
]

WORKERS_ENV = "REPRO_WORKERS"

#: Domain-separation tag for the corpus-shard seed stream.  Folded into
#: every :func:`shard_seeds` derivation so shard seeds can never collide
#: with other consumers of the same base seed (the evaluation-workload
#: and pool draws in ``build_context`` use the raw seed).  Changing this
#: value re-rolls every training corpus — treat it like a file-format
#: version.
SHARD_SEED_STREAM = 17


def shard_seeds(base_seed: int, shard_index: int) -> tuple[int, int, int]:
    """Deterministic ``(index, workload, runner)`` seeds for one shard.

    Derived from a :class:`numpy.random.SeedSequence` over
    ``(base_seed, shard_index, SHARD_SEED_STREAM)``, so a shard's seeds
    depend on nothing but its position — not on the fleet size, not on
    how many random draws earlier databases consumed, not on execution
    order.
    """
    if base_seed < 0 or shard_index < 0:
        raise ExperimentError(
            f"shard seeds must be non-negative, got base_seed={base_seed}, "
            f"shard_index={shard_index}"
        )
    state = np.random.SeedSequence(
        [base_seed, shard_index, SHARD_SEED_STREAM]).generate_state(3)
    return int(state[0]), int(state[1]), int(state[2])


@dataclass(frozen=True)
class CorpusShard:
    """One database's collection task: a cheap, picklable unit of work.

    Hydrating and executing a shard touches nothing outside the shard,
    which is what makes shards safe to run in worker processes and to
    cache individually (see
    :meth:`repro.experiments.cache.ArtifactStore.save_shard`).
    """

    database_spec: SyntheticDatabaseSpec
    workload_spec: WorkloadSpec
    index_seed: int
    runner_seed: int
    random_indexes: int = 0
    noise_sigma: float = 0.06
    system: SystemParameters = field(default_factory=SystemParameters)


@dataclass
class ShardExecution:
    """The outcome of one shard: the hydrated database + its records."""

    shard: CorpusShard
    database: Database
    records: list[ExecutedQueryRecord]


def make_corpus_shards(specs: Sequence[SyntheticDatabaseSpec],
                       queries_per_database: int,
                       seed: int = 0,
                       random_indexes_per_database: int = 0,
                       system: Sequence[str] = ("default",),
                       noise_sigma: float = 0.06
                       ) -> list[CorpusShard]:
    """Build one shard per database spec with per-shard seeds.

    ``system`` names the machines of the fleet (see
    :func:`repro.runtime.get_system_config`), assigned **round-robin**
    across the specs — the hardware axis of the training fleet.  A
    shard's machine is part of its recipe, so two shards differing only
    in machine cache (and execute) independently.
    """
    if isinstance(system, str) or not system:
        raise ExperimentError(
            f"system must be a non-empty sequence of machine names, "
            f"got {system!r}")
    machines = [get_system_config(name) for name in system]
    shards = []
    for shard_index, spec in enumerate(specs):
        index_seed, workload_seed, runner_seed = shard_seeds(seed, shard_index)
        shards.append(CorpusShard(
            database_spec=spec,
            workload_spec=WorkloadSpec(num_queries=queries_per_database,
                                       seed=workload_seed),
            index_seed=index_seed,
            runner_seed=runner_seed,
            random_indexes=random_indexes_per_database,
            noise_sigma=noise_sigma,
            system=machines[shard_index % len(machines)],
        ))
    return shards


def execute_shard(shard: CorpusShard) -> ShardExecution:
    """Hydrate → create random indexes → generate workload → run.

    Module-level (not a closure) so process-pool workers can pickle it,
    and fully deterministic in the shard's seeds.
    """
    from repro.workload.corpus import create_random_indexes

    database = generate_database(shard.database_spec)
    if shard.random_indexes > 0:
        create_random_indexes(database, shard.random_indexes,
                              np.random.default_rng(shard.index_seed))
    queries: list[Query] = generate_workload(database, shard.workload_spec)
    runner = WorkloadRunner(database, system=shard.system,
                            noise_sigma=shard.noise_sigma,
                            seed=shard.runner_seed)
    return ShardExecution(shard=shard, database=database,
                          records=runner.run(queries))


def resolve_workers(workers: int | None = None) -> int:
    """The single place the worker count is decided.

    Precedence: explicit ``workers`` > the ``REPRO_WORKERS`` environment
    variable > ``1`` (in-process).  ``workers <= 0`` (explicit or via
    the environment) is rejected eagerly with
    :class:`~repro.errors.ExperimentError` rather than failing deep in
    collection.
    """
    if workers is None:
        raw = os.environ.get(WORKERS_ENV, "").strip() or "1"
        try:
            workers = int(raw)
        except ValueError:
            raise ExperimentError(
                f"{WORKERS_ENV} must be an integer, got {raw!r}"
            ) from None
    if workers < 1:
        raise ExperimentError(
            f"worker count must be positive, got {workers}"
        )
    return workers


def run_shards(shards: Sequence[CorpusShard],
               workers: int | None = None) -> list[ShardExecution]:
    """Execute every shard; results align with the input order.

    ``workers`` resolves through :func:`resolve_workers`.  One worker
    (or one shard) runs in-process; more fan the shards out to a process
    pool.  Results pass through pickle on the way back, which preserves
    every record bit-for-bit (floats and numpy arrays round-trip
    exactly), so the corpus is identical to the in-process one — only
    faster.  On Linux the pool forks, so workers inherit the imported
    library instead of re-importing it.
    """
    workers = min(resolve_workers(workers), len(shards))
    if workers <= 1:
        return [execute_shard(shard) for shard in shards]
    # Fork only where it is reliable (Linux); elsewhere the platform
    # default (spawn on macOS/Windows) is safe because execute_shard
    # and every shard are module-level and picklable.
    context = (multiprocessing.get_context("fork")
               if sys.platform == "linux" else None)
    with ProcessPoolExecutor(max_workers=workers,
                             mp_context=context) as pool:
        return list(pool.map(execute_shard, shards))
