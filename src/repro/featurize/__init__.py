"""Featurizations.

* :mod:`~repro.featurize.graph` — the paper's transferable graph
  encoding (Figure 2): heterogeneous nodes for plan operators, tables,
  columns, predicates, aggregates and indexes, annotated with
  *transferable* features only; optionally a ``system`` node carrying
  the machine's timing coefficients (the hardware-transfer axis).
* :mod:`~repro.featurize.mscn` — MSCN's set-based one-hot featurization
  (database-specific, non-transferable baseline).
* :mod:`~repro.featurize.e2e` — E2E's plan-tree featurization with
  one-hot column identities and predicate literals (database-specific
  baseline).
* :mod:`~repro.featurize.plan_features` — a flat vector featurization
  used by ablations.
* :mod:`~repro.featurize.vocabulary` — what the three featurizers read
  a plan with: operator kinds and comparison operators in one-hot
  order, a scan's predicates, column keys, literal normalization.
"""

from repro.featurize.batch import (
    EncodedGraph,
    GraphBatch,
    LevelPlanCache,
    encode_graph,
    encode_graphs,
    fit_scalers,
    merge_encoded,
)
from repro.featurize.e2e import E2EFeaturizer, E2ETreeSample
from repro.featurize.graph import (
    NODE_TYPES,
    CardinalitySource,
    PlanGraph,
    ZeroShotFeaturizer,
)
from repro.featurize.mscn import MSCNFeaturizer, MSCNSample
from repro.featurize.plan_features import flat_plan_features
from repro.featurize.scalers import StandardScaler

__all__ = [
    "CardinalitySource",
    "E2EFeaturizer",
    "E2ETreeSample",
    "EncodedGraph",
    "GraphBatch",
    "LevelPlanCache",
    "MSCNFeaturizer",
    "MSCNSample",
    "NODE_TYPES",
    "PlanGraph",
    "StandardScaler",
    "ZeroShotFeaturizer",
    "encode_graph",
    "encode_graphs",
    "fit_scalers",
    "merge_encoded",
    "flat_plan_features",
]
