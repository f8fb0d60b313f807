"""Zero-shot plan selection (paper Section 4.2, the "naïve approach").

    *"An initial naïve approach for this could be to use the devised
    zero-shot cost estimation model to evaluate candidate plans and thus
    better guide the query optimizer to plans with low costs."*

The classical optimizer's cost model mis-prices plans whenever its
assumptions break (cache effects, spills, correlations).  This module
generates a portfolio of candidate plans — the classical optimum plus
the optima under restricted operator subsets, Bao-style — and lets a
zero-shot model pick the plan with the lowest *predicted runtime*.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.db.database import Database
from repro.errors import ModelError, OptimizerError
from repro.models.api import CostEstimator
from repro.models.cardinality import require_deployable
from repro.optimizer.planner import Planner, PlannerOptions
from repro.plans.plan import PhysicalPlan, plan_signature
from repro.sql.ast import Query

__all__ = ["PlanChoice", "ZeroShotPlanSelector", "candidate_plans"]

#: Candidates whose classical cost exceeds this multiple of the
#: optimizer's best plan are discarded (see :func:`candidate_plans`).
_MAX_COST_RATIO = 3.0

#: Operator-subset "arms", à la Bao's hint sets: each disables some
#: strategies, steering the DP enumerator into a different plan family.
_HINT_SETS: tuple[dict, ...] = (
    {},                                                      # default
    {"enable_nestloop": False},
    {"enable_hashjoin": False},
    {"enable_indexscan": False},
)


def candidate_plans(database: Database, query: Query,
                    cardinality_estimator=None) -> list[PhysicalPlan]:
    """Generate a de-duplicated portfolio of candidate plans.

    Candidates whose classical cost exceeds ``_MAX_COST_RATIO`` times the
    optimizer's best plan are discarded: the zero-shot model was trained
    on executed (i.e. optimizer-chosen) plans and cannot be trusted to
    price plan families it has never observed — the same guardrail Bao's
    hint sets rely on.

    ``cardinality_estimator`` (e.g. a
    :class:`~repro.optimizer.learned_cardinality.LearnedCardinalityEstimator`)
    replaces the classical histogram estimates inside every hint-set
    planning run.
    """
    plans: list[PhysicalPlan] = []
    seen: set[tuple] = set()
    for hints in _HINT_SETS:
        planner = Planner(database, PlannerOptions(**hints),
                          cardinality_estimator=cardinality_estimator)
        try:
            plan = planner.plan(query)
        except OptimizerError:
            continue  # this hint set admits no plan (e.g. scans disabled)
        signature = plan_signature(plan.root)
        if signature not in seen:
            seen.add(signature)
            plans.append(plan)
    if not plans:
        raise OptimizerError("no candidate plan could be generated")
    cost_ceiling = plans[0].total_cost * _MAX_COST_RATIO
    bounded = [plans[0]] + [p for p in plans[1:] if p.total_cost <= cost_ceiling]
    return bounded


@dataclass
class PlanChoice:
    """Outcome of one zero-shot plan selection."""

    plan: PhysicalPlan
    predicted_seconds: float
    classical_plan: PhysicalPlan
    num_candidates: int
    predictions: list[float] = field(default_factory=list)

    @property
    def agrees_with_classical(self) -> bool:
        return plan_signature(self.plan.root) == \
            plan_signature(self.classical_plan.root)


class ZeroShotPlanSelector:
    """Picks the candidate plan with the lowest predicted runtime.

    ``estimator`` is a fitted :class:`~repro.models.api.CostEstimator`
    over estimated cardinalities: candidates are never executed, so
    actual cardinalities do not exist.  All candidates of a query are
    priced in one batched estimator call.
    """

    def __init__(self, database: Database, estimator: CostEstimator,
                 switch_margin: float = 0.3,
                 cardinality_estimator=None):
        require_deployable(estimator, "plan selection")
        if not 0.0 <= switch_margin < 1.0:
            raise ModelError("switch_margin must be in [0, 1)")
        self.estimator = estimator
        self.database = database
        #: Optional learned cardinality injection: every candidate plan
        #: is searched under these estimates instead of the histogram
        #: heuristics (see repro.optimizer.learned_cardinality).
        self.cardinality_estimator = cardinality_estimator
        #: Only deviate from the classical plan when the predicted win
        #: exceeds this relative margin — prediction error within the
        #: margin should not flip plans.
        self.switch_margin = switch_margin

    def choose(self, query: Query) -> PlanChoice:
        """Return the plan the zero-shot model prefers for ``query``."""
        candidates = candidate_plans(
            self.database, query,
            cardinality_estimator=self.cardinality_estimator)
        predictions = self.estimator.predict_runtime(candidates,
                                                     self.database)
        best = int(np.argmin(predictions))
        classical_prediction = predictions[0]  # hint set {} = classical plan
        if predictions[best] >= classical_prediction * (1.0 - self.switch_margin):
            best = 0  # predicted win too small to justify switching
        return PlanChoice(
            plan=candidates[best],
            predicted_seconds=float(predictions[best]),
            classical_plan=candidates[0],
            num_candidates=len(candidates),
            predictions=[float(p) for p in predictions],
        )
