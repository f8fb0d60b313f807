"""Cost models: the zero-shot model and the paper's baselines.

* :class:`~repro.models.zero_shot.ZeroShotCostModel` — the paper's
  contribution: per-node-type encoders + bottom-up DAG message passing +
  MLP readout over the transferable graph encoding.
* :class:`~repro.models.mscn.MSCNCostModel` — set-based workload-driven
  baseline (Kipf et al.).
* :class:`~repro.models.e2e.E2ECostModel` — plan-tree workload-driven
  baseline (Sun & Li).
* :class:`~repro.models.optimizer_cost.ScaledOptimizerCost` — linear
  rescaling of the classical optimizer cost.
* :mod:`~repro.models.fewshot` — fine-tuning a zero-shot model on a few
  queries of the unseen database.
* :mod:`~repro.models.cardinality` — the second zero-shot task:
  per-operator cardinality estimation via a residual readout head
  trained multi-task with the runtime head.

The four learned core models share one base
(:class:`~repro.models.trainer.CoreCostModel`: target statistics, the
single fit / predict / restore path).  All of them are reachable
through the **unified estimator API** (:mod:`repro.models.api`):
``get_estimator(name)`` looks ``name`` up in :data:`ESTIMATORS` and
returns a :class:`~repro.models.api.CostEstimator` that featurizes
physical plans (or SQL) into the model's native sample type internally
— the contract the experiment drivers, the tuning stack and
:mod:`repro.serve` build on.  Plan selection, learned cardinalities and
the advisors take a fitted estimator and nothing else
(:func:`~repro.models.cardinality.require_deployable`); a trained core
model is wrapped with ``ZeroShotEstimator(model=...)``.
"""

from repro.models import estimators
from repro.models.api import (
    CostEstimator,
    get_estimator,
    load_estimator,
    peek_manifest,
    resolve_plans,
)
from repro.models.cardinality import ZeroShotCardinalityEstimator
from repro.models.e2e import E2ECostModel
from repro.models.estimators import ZeroShotEstimator
from repro.models.fewshot import fine_tune
from repro.models.flat import FlatVectorCostModel
from repro.models.metrics import (
    QErrorStats,
    clamp_predictions,
    q_error,
    q_error_stats,
)
from repro.models.mscn import MSCNCostModel
from repro.models.optimizer_cost import ScaledOptimizerCost
from repro.models.trainer import TrainerConfig
from repro.models.zero_shot import ZeroShotConfig, ZeroShotCostModel

#: Estimator name → class: what :func:`get_estimator`,
#: :func:`load_estimator` and :func:`peek_manifest` dispatch on.
ESTIMATORS = {
    estimator.name: estimator
    for estimator in (ZeroShotEstimator, ZeroShotCardinalityEstimator,
                      estimators.FlatVectorEstimator,
                      estimators.MSCNEstimator, estimators.E2EEstimator,
                      estimators.ScaledOptimizerCostEstimator)
}

__all__ = [
    "CostEstimator",
    "E2ECostModel",
    "FlatVectorCostModel",
    "MSCNCostModel",
    "QErrorStats",
    "ScaledOptimizerCost",
    "TrainerConfig",
    "ZeroShotCardinalityEstimator",
    "ZeroShotConfig",
    "ZeroShotCostModel",
    "ZeroShotEstimator",
    "clamp_predictions",
    "fine_tune",
    "get_estimator",
    "load_estimator",
    "peek_manifest",
    "q_error",
    "q_error_stats",
    "resolve_plans",
]
