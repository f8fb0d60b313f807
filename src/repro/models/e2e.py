"""E2E cost model (plan-structured tree network, Sun & Li VLDB'19).

Same tree-recursive shape as the zero-shot model — encoder, bottom-up
combine, readout — but over the *database-specific* featurization of
:mod:`repro.featurize.e2e` (one-hot columns, normalized literals), and
with a single homogeneous node type: a tree is batched as a one-type
graph by :func:`repro.featurize.batch.merge_encoded` and combined by
:func:`repro.models.zero_shot.bottom_up_pass` with one MLP.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from repro.errors import ModelError
from repro.featurize.batch import EncodedGraph, GraphBatch, merge_encoded
from repro.featurize.e2e import E2EFeaturizer, E2ETreeSample
from repro.featurize.graph import FEATURE_DIMS, NODE_TYPES, node_levels
from repro.models.trainer import CoreCostModel
from repro.models.zero_shot import bottom_up_pass
from repro.nn import MLP, Module, Tensor
from repro.nn import tensor as T

__all__ = ["E2EConfig", "E2ENet", "E2ECostModel"]


@dataclass(frozen=True)
class E2EConfig:
    hidden_dim: int = 64
    encoder_hidden: tuple[int, ...] = (64,)
    combine_hidden: tuple[int, ...] = (64,)
    readout_hidden: tuple[int, ...] = (64,)
    seed: int = 0

    #: See :func:`repro.models.trainer.saved_config`.
    removed_fields: ClassVar[dict] = {"activation": "leaky_relu"}


#: A tree has nodes of one type only; the other types' (read-only)
#: feature matrices are empty, shared by every encoded tree.
_NO_NODES = {t: np.zeros((0, FEATURE_DIMS[t])) for t in NODE_TYPES}


def _encode_tree(sample: E2ETreeSample) -> EncodedGraph:
    """A plan tree as a one-type graph — every node a ``plan_op`` — so
    the level batcher of the zero-shot graphs batches E2E trees too."""
    edges = np.asarray(sample.edges, dtype=np.int64).reshape(-1, 2)
    return EncodedGraph(
        num_nodes=sample.num_nodes,
        features={**_NO_NODES, "plan_op": sample.features},
        type_positions={"plan_op": np.arange(sample.num_nodes)},
        type_codes=np.zeros(sample.num_nodes, dtype=np.int64),
        levels=np.asarray(node_levels(sample.num_nodes, sample.edges),
                          dtype=np.int64),
        edges_child=edges[:, 0],
        edges_parent=edges[:, 1],
        root=sample.root,
        target_log_runtime=sample.target_log_runtime,
    )


class E2ENet(Module):
    def __init__(self, node_dim: int, config: E2EConfig):
        super().__init__()
        self.config = config
        rng = np.random.default_rng(config.seed)
        hidden = config.hidden_dim
        self.encoder = MLP(node_dim, list(config.encoder_hidden), hidden, rng)
        self.combine = MLP(2 * hidden, list(config.combine_hidden), hidden,
                           rng)
        self.readout = MLP(hidden, list(config.readout_hidden), 1, rng)

    def forward(self, batch: GraphBatch) -> Tensor | np.ndarray:
        hidden = self.encoder(batch.features["plan_op"])
        hidden = bottom_up_pass(hidden, batch.levels,
                                lambda _node_type: self.combine)
        return T.reshape(self.readout(T.index_select(hidden, batch.roots)),
                         -1)


class E2ECostModel(CoreCostModel):
    """Wrapper pairing the tree net with its per-database featurizer."""

    kind = "E2E"
    collate = staticmethod(merge_encoded)

    def __init__(self, featurizer: E2EFeaturizer,
                 config: E2EConfig | None = None):
        if not featurizer.is_fitted:
            raise ModelError("E2E featurizer must be fitted before "
                             "constructing the model")
        self.featurizer = featurizer
        self.config = config or E2EConfig()
        super().__init__(E2ENet(featurizer.node_dim, self.config))

    def _encode(self, samples: list[E2ETreeSample]) -> list[EncodedGraph]:
        return [_encode_tree(sample) for sample in samples]
