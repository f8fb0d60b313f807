"""Workload execution: plan + execute + simulate, producing labelled records.

This is the training-data collection step of the paper (running the
workload and logging plans with runtimes).  The runner also accumulates
the total *simulated* execution time, which Figure 3's right-most panel
reports: the hours of query execution a workload-driven model costs on a
new database.

Workloads are executed as a batch against one database, so the runner
shares one :class:`~repro.engine.BuildSideCache` (its default 64
entries) across queries: hash-join build sides over the same base tables
(typically the unfiltered dimension-table scans a generated workload
revisits constantly) are executed and hashed once, then only probed by
later queries.  Caching is transparent — records are bit-identical with
and without it — and ``reuse_build_side=False``, the path without it,
is the reference the workload tests compare against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.db.database import Database
from repro.engine import BuildSideCache, Executor
from repro.errors import WorkloadError
from repro.optimizer.planner import Planner, PlannerOptions
from repro.plans.plan import PhysicalPlan, walk_plan
from repro.runtime import RuntimeSimulator, SystemParameters
from repro.sql.ast import Query

__all__ = ["RECORD_SCHEMA_VERSION", "ExecutedQueryRecord", "WorkloadRunner"]

#: Version of the :class:`ExecutedQueryRecord` schema.  Bump whenever a
#: field is added/changed so persisted artifacts (corpus shards, cached
#: experiment contexts) built from older records are never silently
#: reused — the shard cache folds this into its content keys.
#: v2: per-operator ``operator_cardinalities`` labels.
RECORD_SCHEMA_VERSION = 2


@dataclass
class ExecutedQueryRecord:
    """One executed training/evaluation query."""

    query: Query
    plan: PhysicalPlan            # executed: actual cardinalities annotated
    runtime_seconds: float
    database_name: str
    memory_peak_bytes: float = 0.0
    io_pages: float = 0.0
    #: True output cardinality of every plan operator, in the pre-order
    #: of :func:`repro.plans.plan.walk_plan` — the per-node labels the
    #: zero-shot cardinality head trains on.  Recorded explicitly (not
    #: just as executor annotations on the plan) so the corpus schema
    #: survives ``plan.reset_actuals()`` and stays self-describing.
    operator_cardinalities: tuple[float, ...] = ()

    @property
    def optimizer_cost(self) -> float:
        return self.plan.total_cost


@dataclass
class WorkloadRunner:
    """Runs workloads on one database."""

    database: Database
    system: SystemParameters = field(default_factory=SystemParameters)
    planner_options: PlannerOptions = field(default_factory=PlannerOptions)
    noise_sigma: float = 0.06
    seed: int = 0
    #: Share hash-join build sides across the queries of one runner.
    reuse_build_side: bool = True
    #: Cardinality source the planner optimizes with — ``None`` uses the
    #: classical histogram heuristics, a
    #: :class:`~repro.optimizer.learned_cardinality.LearnedCardinalityEstimator`
    #: plans with model-predicted cardinalities (the injection path the
    #: cardinality experiment's plan-quality comparison measures).
    cardinality_estimator: object | None = None

    def __post_init__(self):
        self._planner = Planner(self.database, self.planner_options,
                                cardinality_estimator=self.cardinality_estimator)
        self._executor = Executor(
            self.database,
            build_cache=BuildSideCache() if self.reuse_build_side else None)
        self._simulator = RuntimeSimulator(
            self.database, system=self.system, noise_sigma=self.noise_sigma,
            rng=np.random.default_rng(self.seed),
        )

    def run_query(self, query: Query) -> ExecutedQueryRecord:
        plan = self._planner.plan(query)
        self._executor.execute(plan)
        runtime = self._simulator.simulate(plan)
        return ExecutedQueryRecord(
            query=query, plan=plan,
            runtime_seconds=runtime.total_seconds,
            database_name=self.database.name,
            memory_peak_bytes=runtime.memory_peak_bytes,
            io_pages=runtime.io_pages,
            operator_cardinalities=tuple(
                float(node.actual_rows) for node in walk_plan(plan.root)
            ),
        )

    def run(self, queries: list[Query]) -> list[ExecutedQueryRecord]:
        if not queries:
            raise WorkloadError("cannot run an empty workload")
        return [self.run_query(query) for query in queries]

    @staticmethod
    def total_execution_hours(records: list[ExecutedQueryRecord]) -> float:
        """Cumulative simulated execution time (Figure 3, last panel)."""
        return sum(r.runtime_seconds for r in records) / 3600.0
