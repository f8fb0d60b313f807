"""Zero-shot cardinality estimation behind the unified estimator API.

The paper names cardinality estimation as the natural next task for the
transferable graph representation ("beyond cost estimation"): the same
plan encoding that predicts runtimes can predict *per-operator output
cardinalities*, trained once across the fleet and applied zero-shot to
unseen databases.

:class:`ZeroShotCardinalityEstimator` is that second task head.  It is
a full :class:`~repro.models.api.CostEstimator` — the underlying
network is trained **multi-task** (runtime + per-operator
log-cardinality losses share the message-passing trunk), so
``predict_runtime`` works exactly like the plain ``zero-shot``
estimator — plus the cardinality surface:

* :meth:`ZeroShotCardinalityEstimator.predict_cardinalities` — one
  array of predicted operator output rows per plan, in plan pre-order;
* :meth:`ZeroShotCardinalityEstimator.predict_cardinalities_encoded` —
  the batched encoded-path twin that
  :meth:`repro.serve.CostModelService.predict_cardinalities` serves
  through.

Training features use the optimizer's *estimated* cardinalities (the
deployable configuration — actual cardinalities do not exist for a plan
that has not run), so the head effectively learns to correct the
histogram heuristics' independence-assumption drift.  The supervision
is each record's
:attr:`~repro.workload.runner.ExecutedQueryRecord.operator_cardinalities`.

The optimizer-side consumer is
:class:`~repro.optimizer.learned_cardinality.LearnedCardinalityEstimator`,
which injects these predictions into the DP join enumerator.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from repro.db.database import Database
from repro.errors import ModelError
from repro.featurize.graph import CardinalitySource
from repro.models.api import CostEstimator, resolve_plans
from repro.models.estimators import ZeroShotEstimator
from repro.models.optimizer_cost import ScaledOptimizerCost
from repro.models.trainer import CoreCostModel
from repro.models.zero_shot import ZeroShotConfig, ZeroShotCostModel
from repro.plans.plan import PhysicalPlan, walk_plan
from repro.runtime import SystemParameters
from repro.sql.ast import Query

if TYPE_CHECKING:  # pragma: no cover - typing only (workload imports optimizer)
    from repro.workload.runner import ExecutedQueryRecord

__all__ = ["ZeroShotCardinalityEstimator", "record_cardinalities",
           "require_deployable"]


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


class ZeroShotCardinalityEstimator(ZeroShotEstimator):
    """The zero-shot *cardinality* head behind the unified contract.

    Same transferable featurization and estimator surface as the
    ``zero-shot`` runtime estimator; the wrapped model carries the
    per-operator cardinality readout
    (``ZeroShotConfig(cardinality_head=True)``) and is trained
    multi-task on runtime *and* log-cardinality targets.
    """

    name = "zero-shot-cardinality"

    def __init__(self, config: ZeroShotConfig | None = None,
                 source: CardinalitySource = CardinalitySource.ESTIMATED,
                 model: ZeroShotCostModel | None = None,
                 system: SystemParameters | None = None):
        if model is None:
            config = config or ZeroShotConfig(cardinality_head=True)
            if not config.cardinality_head:
                raise ModelError(
                    f"{self.name} needs "
                    f"ZeroShotConfig(cardinality_head=True)"
                )
        elif not model.config.cardinality_head:
            raise ModelError(
                f"{self.name} wraps a model without a cardinality head"
            )
        super().__init__(config=config, source=source, model=model,
                         system=system)

    # -- training ------------------------------------------------------
    def _extra_labels(self, record) -> dict:
        """Per-operator cardinality labels, so both ``fit`` and
        ``fine_tune`` train the joint loss (a runtime-only update would
        silently decalibrate ``predict_cardinalities``)."""
        return {"operator_cardinalities": record_cardinalities(record)}

    # -- cardinality surface -------------------------------------------
    def predict_cardinalities_encoded(self, encoded: Sequence[Any]
                                      ) -> list[np.ndarray]:
        """Predicted operator output rows for pre-encoded plans.

        The batched twin of :meth:`predict_cardinalities`, consuming
        the same :meth:`encode_plans` precompute the serving layer
        caches.
        """
        return self.model.predict_cardinalities_from_encoded(list(encoded))

    def predict_cardinalities(self,
                              plans: Sequence["PhysicalPlan | Query | str"],
                              database: Database | None = None
                              ) -> list[np.ndarray]:
        """Per-plan arrays of predicted operator output cardinalities.

        Each array aligns with the plan's operators in pre-order (the
        order :func:`repro.plans.plan.walk_plan` yields); entry 0 is
        the plan root.
        """
        self._require_fitted()
        resolved = resolve_plans(plans, database)
        if not resolved:
            return []
        return self.predict_cardinalities_encoded(
            self.encode_plans(resolved, database))


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
