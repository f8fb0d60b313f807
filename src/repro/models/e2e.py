"""E2E cost model (plan-structured tree network, Sun & Li VLDB'19).

Same tree-recursive shape as the zero-shot model — encoder, bottom-up
combine, readout — but over the *database-specific* featurization of
:mod:`repro.featurize.e2e` (one-hot columns, normalized literals), and
with a single homogeneous node type.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ModelError
from repro.featurize.e2e import E2EFeaturizer, E2ETreeSample
from repro.models.trainer import CoreCostModel, collate_targets
from repro.nn import MLP, Module, RowSums, Tensor, rank_rounds

__all__ = ["E2EConfig", "E2ENet", "E2ECostModel"]


@dataclass(frozen=True)
class E2EConfig:
    hidden_dim: int = 64
    encoder_hidden: tuple[int, ...] = (64,)
    combine_hidden: tuple[int, ...] = (64,)
    readout_hidden: tuple[int, ...] = (64,)
    activation: str = "leaky_relu"
    seed: int = 0


@dataclass
class _TreeBatch:
    num_nodes: int
    features: np.ndarray
    #: Per level: the parents' node ids, the rank rounds of their child
    #: sum (child ids into parent slots) and those of its backward pass
    #: (parent slots into child ids).
    levels: list[tuple[np.ndarray, RowSums, RowSums]]
    roots: np.ndarray
    targets: np.ndarray | None = None


def _batch_trees(samples: list[E2ETreeSample]) -> _TreeBatch:
    """Collate samples into one batch (used once per mini-batch)."""
    offsets = np.cumsum([0] + [s.num_nodes for s in samples])
    features = np.concatenate([s.features for s in samples], axis=0)
    level_of = np.concatenate([np.asarray(s.levels()) for s in samples])
    edges_child = []
    edges_parent = []
    roots = []
    for sample, offset in zip(samples, offsets[:-1]):
        for child, parent in sample.edges:
            edges_child.append(child + offset)
            edges_parent.append(parent + offset)
        roots.append(sample.root + offset)
    edges_child = np.asarray(edges_child, dtype=np.int64)
    edges_parent = np.asarray(edges_parent, dtype=np.int64)

    levels = []
    max_level = int(level_of.max()) if len(level_of) else 0
    parent_levels = level_of[edges_parent] if len(edges_parent) else \
        np.zeros(0, dtype=np.int64)
    for level in range(1, max_level + 1):
        parent_ids = np.flatnonzero(level_of == level)
        if not len(parent_ids):
            continue
        slot_of = {int(p): i for i, p in enumerate(parent_ids)}
        mask = parent_levels == level
        child_ids = edges_child[mask]
        parent_slots = np.asarray([slot_of[int(p)] for p in edges_parent[mask]],
                                  dtype=np.int64)
        levels.append((parent_ids, rank_rounds(child_ids, parent_slots),
                       rank_rounds(parent_slots, child_ids)))
    targets = collate_targets([s.target_log_runtime for s in samples],
                              "E2E")
    return _TreeBatch(num_nodes=int(offsets[-1]), features=features,
                      levels=levels, roots=np.asarray(roots, dtype=np.int64),
                      targets=targets)


class E2ENet(Module):
    def __init__(self, node_dim: int, config: E2EConfig):
        super().__init__()
        self.config = config
        rng = np.random.default_rng(config.seed)
        hidden = config.hidden_dim
        self.encoder = MLP(node_dim, list(config.encoder_hidden), hidden, rng,
                           activation=config.activation)
        self.combine = MLP(2 * hidden, list(config.combine_hidden), hidden,
                           rng, activation=config.activation)
        self.readout = MLP(hidden, list(config.readout_hidden), 1, rng,
                           activation=config.activation)

    def forward(self, batch: _TreeBatch) -> Tensor:
        hidden = self.encoder(Tensor(batch.features))
        for parent_ids, child_sums, grad_sums in batch.levels:
            child_sum = hidden.gather_sum(child_sums, len(parent_ids),
                                          grad_sums)
            parent_hidden = hidden.index_select(parent_ids)
            combined = self.combine(
                Tensor.concat([parent_hidden, child_sum], axis=1)
            )
            # h + (c - h), not c: the two round differently.
            hidden = hidden.add_rows(parent_ids, combined - parent_hidden)
        return self.readout(hidden.index_select(batch.roots)).reshape(-1)


class E2ECostModel(CoreCostModel):
    """Wrapper pairing the tree net with its per-database featurizer."""

    kind = "E2E"
    collate = staticmethod(_batch_trees)

    def __init__(self, featurizer: E2EFeaturizer,
                 config: E2EConfig | None = None):
        if not featurizer.is_fitted:
            raise ModelError("E2E featurizer must be fitted before "
                             "constructing the model")
        self.featurizer = featurizer
        self.config = config or E2EConfig()
        super().__init__(E2ENet(featurizer.node_dim, self.config))
