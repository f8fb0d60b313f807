"""Workload generation and training-data collection.

* :mod:`~repro.workload.generator` — the random query generator used for
  training workloads (paper §3.2: up to five-way joins, up to five
  numerical/categorical predicates, up to three aggregates).
* :mod:`~repro.workload.benchmarks` — IMDB evaluation workloads
  mirroring the character of *scale*, *synthetic* and *JOB-light*.
* :mod:`~repro.workload.runner` — plan + execute + simulate a workload,
  producing labelled records (the EXPLAIN ANALYZE logs of the paper).
* :mod:`~repro.workload.corpus` — assemble the multi-database training
  corpus, optionally under random physical designs (for what-if
  training, §4.1).
* :mod:`~repro.workload.backends` — sharded collection: per-database
  :class:`CorpusShard` units executed by
  :func:`~repro.workload.backends.run_shards` (in-process or a process
  pool, record-identical).
"""

from repro.workload.backends import CorpusShard, ShardExecution
from repro.workload.benchmarks import (
    BENCHMARK_NAMES,
    make_benchmark_workload,
)
from repro.workload.corpus import TrainingCorpus, collect_training_corpus
from repro.workload.generator import WorkloadSpec, generate_workload
from repro.workload.runner import (
    RECORD_SCHEMA_VERSION,
    ExecutedQueryRecord,
    WorkloadRunner,
)

__all__ = [
    "BENCHMARK_NAMES",
    "CorpusShard",
    "ExecutedQueryRecord",
    "RECORD_SCHEMA_VERSION",
    "ShardExecution",
    "TrainingCorpus",
    "WorkloadRunner",
    "WorkloadSpec",
    "collect_training_corpus",
    "generate_workload",
    "make_benchmark_workload",
]
