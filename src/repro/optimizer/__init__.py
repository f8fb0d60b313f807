"""Cost-based query optimizer (the Postgres stand-in).

Provides the three things the paper's pipeline takes from Postgres:

* physical plans (DP join enumeration + operator selection),
* *estimated* cardinalities per plan node (histogram statistics under
  independence/uniformity assumptions — inexact on correlated data, as
  in the real system),
* the classical optimizer cost, which the Scaled-Optimizer-Cost baseline
  regresses onto runtimes.

What-if planning (Section 4.1) is no planner mode: indexes registered
by :func:`repro.tuning.advisor.hypothetical_indexes` are planned like
real ones.  Learned cardinality injection (the zero-shot cardinality
head driving the same DP search) lives in
:mod:`repro.optimizer.learned_cardinality`; the logical rewrite
phase, one pass of predicate pushdown, filter merge, transitive join
inference and projection pruning (behind
``PlannerOptions(enable_rewrites=True)``) in
:mod:`repro.optimizer.rewrite`.
"""

from repro.optimizer.learned_cardinality import LearnedCardinalityEstimator
from repro.optimizer.planner import Planner, PlannerOptions, plan_query
from repro.optimizer.rewrite import RewritePlanner

__all__ = [
    "LearnedCardinalityEstimator",
    "Planner",
    "PlannerOptions",
    "RewritePlanner",
    "plan_query",
]
