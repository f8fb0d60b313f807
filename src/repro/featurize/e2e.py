"""E2E featurization (Sun & Li, VLDB 2019) — workload-driven baseline.

E2E is plan-structured (a tree model over physical operators, like the
zero-shot model) but its per-node features embed *database-specific*
identities: one-hot columns and min-max-normalized predicate literals.
It therefore learns data characteristics end-to-end — accurate on the
database it was trained on (given enough queries), useless on another.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.db.database import Database
from repro.errors import FeaturizationError
from repro.featurize.vocabulary import (
    COMPARISON_INDEX,
    OPERATOR_INDEX,
    OPERATOR_KINDS,
    check_runtime_label,
    column_key,
    normalized_literal,
    scan_predicates,
)
from repro.plans.operators import PlanNode
from repro.plans.plan import PhysicalPlan

__all__ = ["E2EFeaturizer", "E2ETreeSample"]


@dataclass
class E2ETreeSample:
    """One featurized plan tree (homogeneous node features)."""

    features: np.ndarray                 # [num_nodes, dim]
    edges: list[tuple[int, int]] = field(default_factory=list)
    root: int = 0
    target_log_runtime: float | None = None

    @property
    def num_nodes(self) -> int:
        return len(self.features)


class E2EFeaturizer:
    """Builds E2E tree samples for one database."""

    def __init__(self, database: Database):
        self.database = database
        self.columns: dict[str, int] = {}

    # ------------------------------------------------------------------
    def fit(self, plans: list[PhysicalPlan]) -> "E2EFeaturizer":
        """Collect the column vocabulary from training plans."""
        for plan in plans:
            for node in plan.nodes():
                for predicate in scan_predicates(node):
                    self.columns.setdefault(
                        column_key(plan.query, predicate),
                        len(self.columns),
                    )
        return self

    @property
    def is_fitted(self) -> bool:
        return bool(self.columns)

    @property
    def node_dim(self) -> int:
        return (len(OPERATOR_KINDS) + 2 +                 # op + rows + width
                len(self.columns) + len(COMPARISON_INDEX) + 1)

    # ------------------------------------------------------------------
    def featurize(self, plan: PhysicalPlan,
                  target_runtime_seconds: float | None = None) -> E2ETreeSample:
        if not self.is_fitted:
            raise FeaturizationError("E2E featurizer used before fit()")
        features: list[np.ndarray] = []
        edges: list[tuple[int, int]] = []
        root = self._encode(plan.root, plan, features, edges)
        target = None
        if target_runtime_seconds is not None:
            check_runtime_label(target_runtime_seconds)
            target = float(np.log(target_runtime_seconds))
        return E2ETreeSample(features=np.stack(features), edges=edges,
                             root=root, target_log_runtime=target)

    def _encode(self, node: PlanNode, plan: PhysicalPlan,
                features: list[np.ndarray],
                edges: list[tuple[int, int]]) -> int:
        vector = np.zeros(self.node_dim)
        vector[OPERATOR_INDEX[node.operator_name]] = 1.0
        base = len(OPERATOR_KINDS)
        vector[base] = np.log1p(max(node.est_rows, 0.0))
        vector[base + 1] = np.log1p(max(node.est_width, 0.0))
        predicate_base = base + 2
        for predicate in scan_predicates(node):
            key = column_key(plan.query, predicate)
            if key not in self.columns:
                raise FeaturizationError(
                    f"column {key!r} is not in the E2E vocabulary "
                    "(plan-tree one-hot featurizations cannot transfer)"
                )
            vector[predicate_base + self.columns[key]] += 1.0
            op_base = predicate_base + len(self.columns)
            vector[op_base + COMPARISON_INDEX[predicate.operator]] += 1.0
            vector[-1] += normalized_literal(self.database, plan.query,
                                             predicate)
        node_id = len(features)
        features.append(vector)
        for child in node.children:
            child_id = self._encode(child, plan, features, edges)
            edges.append((child_id, node_id))
        return node_id
