"""Flat-vector ablation model.

Uses the transferable features but *discards the graph structure*
(:func:`repro.featurize.plan_features.flat_plan_features`), isolating
the contribution of message passing in the ablation benchmark (E7).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.featurize.graph import PlanGraph
from repro.featurize.plan_features import FLAT_DIM, flat_plan_features
from repro.featurize.scalers import StandardScaler
from repro.models.trainer import CoreCostModel, collate_targets
from repro.nn import MLP, Tensor
from repro.nn import tensor as T

__all__ = ["FlatVectorCostModel"]


@dataclass
class _FlatSample:
    """One plan's scaled pooled feature vector (and label, if any)."""

    vector: np.ndarray
    target_log_runtime: float | None


@dataclass
class _FlatBatch:
    vectors: np.ndarray
    targets: np.ndarray | None


class FlatVectorCostModel(CoreCostModel):
    """MLP on pooled plan features (no structure).

    Targets are *not* standardized (the statistics stay at their
    identity defaults), as the ablation always trained on raw
    log-runtimes.
    """

    kind = "flat"

    def __init__(self, hidden: tuple[int, ...] = (128, 64), seed: int = 0):
        self.hidden = tuple(hidden)
        self.seed = seed
        self.scaler: StandardScaler | None = None
        super().__init__(MLP(FLAT_DIM, list(hidden), 1,
                             np.random.default_rng(seed)))

    @staticmethod
    def _vectorize(graphs: list[PlanGraph]) -> np.ndarray:
        return np.stack([flat_plan_features(g) for g in graphs])

    def _calibrate(self, graphs: list[PlanGraph]) -> None:
        self.scaler = StandardScaler().fit(self._vectorize(graphs))

    def _encode(self, graphs: list[PlanGraph]) -> list[_FlatSample]:
        if not graphs:
            return []
        rows = self.scaler.transform(self._vectorize(graphs))
        return [_FlatSample(row, g.target_log_runtime)
                for row, g in zip(rows, graphs)]

    @staticmethod
    def collate(samples: list[_FlatSample]) -> _FlatBatch:
        return _FlatBatch(
            np.stack([s.vector for s in samples]),
            collate_targets([s.target_log_runtime for s in samples], "flat"))

    def _forward(self, batch: _FlatBatch) -> Tensor | np.ndarray:
        return T.reshape(self.net(batch.vectors), -1)
