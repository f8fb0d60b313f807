"""MSCN cost model (set-based multi-set convolutional network).

Three per-set MLPs (tables, joins, predicates) followed by average
pooling, concatenation and a final MLP.  Featurization is one-hot per
database (see :mod:`repro.featurize.mscn`), so the model is
workload-driven: it must be trained on the target database.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from repro.errors import ModelError
from repro.featurize.mscn import MSCNFeaturizer, MSCNSample
from repro.models.trainer import CoreCostModel, collate_targets
from repro.nn import MLP, Module, RowSums, Tensor, rank_rounds
from repro.nn import tensor as T

__all__ = ["MSCNConfig", "MSCNNet", "MSCNBatch", "collate_mscn",
           "MSCNCostModel"]

_SET_ATTRIBUTES = ("table_features", "join_features", "predicate_features")


@dataclass(frozen=True)
class MSCNConfig:
    hidden_dim: int = 64
    set_hidden: tuple[int, ...] = (64,)
    final_hidden: tuple[int, ...] = (64,)
    seed: int = 0

    #: See :func:`repro.models.trainer.saved_config`.
    removed_fields: ClassVar[dict] = {"activation": "relu"}


@dataclass
class MSCNBatch:
    """Pre-stacked set matrices for one mini-batch (built once).

    Per set kind: ``(stacked_features, pool_sums, unpool_sums,
    counts)`` — what the net's pooling needs, so training never
    re-stacks (or re-ranks) a batch it has already seen.  The pool
    rounds sum element rows into their sample's row, the ``k``-th
    element of every sample in round ``k``; the single unpool round
    hands a sample's gradient back to each of its elements.
    """

    sets: dict[str, tuple[np.ndarray, RowSums, RowSums, np.ndarray]]
    targets: np.ndarray | None
    num_samples: int


def collate_mscn(samples: list[MSCNSample]) -> MSCNBatch:
    """Stack a list of samples into one :class:`MSCNBatch`."""
    sets = {}
    for attribute in _SET_ATTRIBUTES:
        matrices = [getattr(s, attribute) for s in samples]
        counts = np.asarray([len(m) for m in matrices], dtype=np.float64)
        stacked = np.concatenate(matrices, axis=0)
        sample_ids = np.repeat(np.arange(len(samples)),
                               counts.astype(np.int64))
        element_ids = np.arange(len(stacked))
        sets[attribute] = (stacked, rank_rounds(element_ids, sample_ids),
                           rank_rounds(sample_ids, element_ids), counts)
    targets = collate_targets([s.target_log_runtime for s in samples],
                              "MSCN")
    return MSCNBatch(sets=sets, targets=targets, num_samples=len(samples))


class MSCNNet(Module):
    """Set encoders + mean pooling + output MLP."""

    def __init__(self, table_dim: int, join_dim: int, predicate_dim: int,
                 config: MSCNConfig):
        super().__init__()
        self.config = config
        rng = np.random.default_rng(config.seed)
        hidden = config.hidden_dim
        self.table_mlp = MLP(table_dim, list(config.set_hidden), hidden, rng,
                             activation="relu")
        self.join_mlp = MLP(join_dim, list(config.set_hidden), hidden, rng,
                            activation="relu")
        self.predicate_mlp = MLP(predicate_dim, list(config.set_hidden),
                                 hidden, rng, activation="relu")
        self.output = MLP(3 * hidden, list(config.final_hidden), 1, rng,
                          activation="relu")

    @staticmethod
    def _pool(encoded: Tensor | np.ndarray, pool_sums: RowSums,
              unpool_sums: RowSums, counts: np.ndarray
              ) -> Tensor | np.ndarray:
        summed = T.gather_sum(encoded, pool_sums, len(counts), unpool_sums)
        return T.mul(summed, (1.0 / np.maximum(counts, 1.0))[:, None])

    def forward(self, batch: MSCNBatch) -> Tensor | np.ndarray:
        """Predicted log-runtimes for a collated batch of samples."""
        pooled = []
        for attribute, mlp in (
            ("table_features", self.table_mlp),
            ("join_features", self.join_mlp),
            ("predicate_features", self.predicate_mlp),
        ):
            stacked, pool_sums, unpool_sums, counts = batch.sets[attribute]
            encoded = mlp(stacked)
            pooled.append(self._pool(encoded, pool_sums, unpool_sums,
                                     counts))
        return T.reshape(self.output(T.concat(pooled, axis=1)), -1)


class MSCNCostModel(CoreCostModel):
    """Wrapper pairing the net with its per-database featurizer."""

    kind = "MSCN"
    collate = staticmethod(collate_mscn)

    def __init__(self, featurizer: MSCNFeaturizer,
                 config: MSCNConfig | None = None):
        if featurizer.vocabulary.is_empty:
            raise ModelError("MSCN featurizer must be fitted before "
                             "constructing the model")
        self.featurizer = featurizer
        self.config = config or MSCNConfig()
        super().__init__(MSCNNet(featurizer.table_dim, featurizer.join_dim,
                                 featurizer.predicate_dim, self.config))
