"""repro — zero-shot cost models for databases.

A from-scratch reproduction of Hilprecht & Binnig, *"One Model to Rule
them All: Towards Zero-Shot Learning for Databases"* (CIDR 2022),
including every substrate the paper depends on: a relational engine with
a Postgres-style optimizer, a runtime simulator standing in for the
paper's server, a numpy autograd library (the ops, the one layer,
optimizer and loss the learned models run, and nothing else), the
transferable graph encoding, the zero-shot model, the workload-driven baselines (MSCN, E2E,
scaled optimizer cost), what-if index tuning and few-shot adaptation.

Typical usage::

    from repro import (
        generate_training_database_specs, collect_training_corpus,
        CardinalitySource, ZeroShotCostModel,
    )

    specs = generate_training_database_specs(8, base_seed=0)
    corpus = collect_training_corpus(specs, queries_per_database=150)
    model = ZeroShotCostModel()
    model.fit(corpus.featurize(CardinalitySource.ESTIMATED))
    # ... predict on a database the model has never seen (see README).
"""

from repro.db import (
    Database,
    SyntheticDatabaseSpec,
    generate_database,
    generate_training_database_specs,
    make_imdb_database,
)
from repro.engine import execute_plan
from repro.featurize import CardinalitySource, ZeroShotFeaturizer
from repro.models import (
    CostEstimator,
    E2ECostModel,
    MSCNCostModel,
    ScaledOptimizerCost,
    TrainerConfig,
    ZeroShotConfig,
    ZeroShotCostModel,
    ZeroShotEstimator,
    fine_tune,
    get_estimator,
    load_estimator,
    q_error,
    q_error_stats,
)
from repro.optimizer import plan_query
from repro.plans import explain_plan
from repro.runtime import (
    RuntimeSimulator,
    SystemParameters,
    available_system_configs,
    get_system_config,
)
from repro.serve import CostModelService, ServiceStats
from repro.sql import parse_query, query_to_sql
from repro.tuning import HardwareAdvisor, IndexAdvisor
from repro.workload import (
    WorkloadRunner,
    collect_training_corpus,
    generate_workload,
    make_benchmark_workload,
)

__version__ = "0.1.0"

__all__ = [
    "CardinalitySource",
    "CostEstimator",
    "CostModelService",
    "Database",
    "E2ECostModel",
    "HardwareAdvisor",
    "IndexAdvisor",
    "MSCNCostModel",
    "RuntimeSimulator",
    "ScaledOptimizerCost",
    "ServiceStats",
    "SyntheticDatabaseSpec",
    "SystemParameters",
    "TrainerConfig",
    "WorkloadRunner",
    "ZeroShotConfig",
    "ZeroShotCostModel",
    "ZeroShotEstimator",
    "ZeroShotFeaturizer",
    "__version__",
    "available_system_configs",
    "collect_training_corpus",
    "execute_plan",
    "explain_plan",
    "fine_tune",
    "generate_database",
    "generate_training_database_specs",
    "generate_workload",
    "get_estimator",
    "get_system_config",
    "load_estimator",
    "make_benchmark_workload",
    "make_imdb_database",
    "parse_query",
    "plan_query",
    "q_error",
    "q_error_stats",
    "query_to_sql",
]
