"""Zero-shot What-If runtime estimation.

Combines the :class:`~repro.optimizer.whatif.WhatIfPlanner` (hypothetical
indexes, re-planning) with a cost model behind the unified
:class:`~repro.models.api.CostEstimator` contract.  Hypothetical plans
cannot be executed, so features must come from the optimizer's
*estimated* cardinalities — the deployable configuration of the paper.

Workload estimates are **batched**: all queries are re-planned under the
hypothetical design, then priced in one estimator call.  Because
inference is batch-size invariant, batching does not change a single
prediction bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.db.database import Database
from repro.errors import ModelError
from repro.models.api import CostEstimator
from repro.models.cardinality import require_deployable
from repro.optimizer.whatif import IndexSpec, WhatIfPlanner
from repro.plans.plan import PhysicalPlan
from repro.sql.ast import Query

__all__ = ["ZeroShotWhatIfEstimator"]


@dataclass
class ZeroShotWhatIfEstimator:
    """Answers "how fast would this query be if index X existed?".

    ``estimator`` is a fitted :class:`~repro.models.api.CostEstimator`
    over estimated cardinalities, the only source valid for
    never-executed hypothetical plans.
    """

    database: Database
    estimator: CostEstimator

    def __post_init__(self):
        require_deployable(self.estimator, "what-if estimation")
        self._planner = WhatIfPlanner(self.database)

    # ------------------------------------------------------------------
    def _predict(self, plans: list[PhysicalPlan]) -> np.ndarray:
        return self.estimator.predict_runtime(plans, self.database)

    def estimate_workload(self, queries: list[Query],
                          indexes: list[IndexSpec] | None = None) -> float:
        """Total predicted runtime of a workload (seconds), batched."""
        if not queries:
            raise ModelError("cannot estimate an empty workload")
        if indexes:
            plans = [self._planner.plan_with_indexes(q, indexes)
                     for q in queries]
            with self._planner.hypothetical_indexes(indexes):
                return float(np.sum(self._predict(plans)))
        plans = [self._planner.plan_without_indexes(q) for q in queries]
        return float(np.sum(self._predict(plans)))
