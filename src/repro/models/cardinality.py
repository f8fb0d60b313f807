"""Zero-shot cardinality estimation: labels and consumer checks.

The paper names cardinality estimation as the natural next task for the
transferable graph representation ("beyond cost estimation"): the same
plan encoding that predicts runtimes can predict *per-operator output
cardinalities*, trained once across the fleet and applied zero-shot to
unseen databases.

That task is a second readout on the one zero-shot model, not a second
estimator: ``ZeroShotEstimator(config=ZeroShotConfig(
cardinality_head=True))`` trains the message-passing trunk
**multi-task** (runtime + per-operator log-cardinality losses), so
``predict_runtime`` works as for any zero-shot model, and
:meth:`~repro.models.estimators.ZeroShotEstimator.predict_cardinalities`
returns one array of predicted operator output rows per plan, in plan
pre-order.

Training features use the optimizer's *estimated* cardinalities (the
deployable configuration — actual cardinalities do not exist for a plan
that has not run), so the head effectively learns to correct the
histogram heuristics' independence-assumption drift.  The supervision
is :func:`record_cardinalities` of each record.

The optimizer-side consumer is
:class:`~repro.optimizer.learned_cardinality.LearnedCardinalityEstimator`,
which injects these predictions into the DP join enumerator.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import ModelError
from repro.featurize.graph import CardinalitySource
from repro.models.api import CostEstimator
from repro.models.optimizer_cost import ScaledOptimizerCost
from repro.models.trainer import CoreCostModel
from repro.plans.plan import walk_plan

if TYPE_CHECKING:  # pragma: no cover - typing only (workload imports optimizer)
    from repro.workload.runner import ExecutedQueryRecord

__all__ = ["record_cardinalities", "require_deployable"]


def record_cardinalities(record: ExecutedQueryRecord) -> tuple[float, ...]:
    """Per-operator true cardinalities of a record, in plan pre-order.

    Prefers the record's explicit ``operator_cardinalities`` schema
    field; records built by hand around an executed plan fall back to
    the executor's ``actual_rows`` annotations.
    """
    if record.operator_cardinalities:
        return record.operator_cardinalities
    cards = [node.actual_rows for node in walk_plan(record.plan.root)]
    if any(c is None for c in cards):
        raise ModelError(
            f"record on {record.database_name!r} has neither "
            f"operator_cardinalities nor an executed plan; cardinality "
            f"training needs per-operator labels"
        )
    return tuple(float(c) for c in cards)


def require_deployable(estimator: CostEstimator, task: str) -> None:
    """The one check of every consumer that prices never-executed plans
    (plan selection, learned cardinalities, what-if and hardware
    advice): ``estimator`` must be a fitted
    :class:`~repro.models.api.CostEstimator` that featurizes with
    estimated cardinalities, the only source such plans have.
    ``task`` names the consumer in the error."""
    if isinstance(estimator, (CoreCostModel, ScaledOptimizerCost)):
        raise ModelError(
            f"{task} takes a fitted CostEstimator, not a raw "
            f"{type(estimator).__name__}: wrap it as "
            f"ZeroShotEstimator(model=...)"
        )
    if not getattr(estimator, "is_fitted", False):
        raise ModelError(f"{task} needs a fitted cost model")
    if getattr(estimator, "source", None) is CardinalitySource.ACTUAL:
        raise ModelError(
            f"{task} needs estimated cardinalities: its plans are never "
            f"executed, so actual cardinalities do not exist"
        )
