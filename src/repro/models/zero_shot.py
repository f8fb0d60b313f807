"""The zero-shot cost model (the paper's core contribution, Section 3.1).

Architecture, following the paper:

1. **Node encoders** — one MLP per node type maps the transferable
   features to a fixed-size hidden vector (the initial hidden states).
2. **Bottom-up message passing** — the DAG is traversed bottom-up; at
   each node the children's hidden states are *summed* (DeepSets) and
   combined with the node's own hidden state by a per-type MLP.
3. **Readout** — the root's hidden state is fed into an MLP that
   predicts the (log) runtime.

Because every feature is transferable, a model trained on a fleet of
databases predicts runtimes for a database it has never seen.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass
from typing import Callable, ClassVar

import numpy as np

from repro.errors import ModelError
from repro.featurize.batch import (
    EncodedGraph,
    GraphBatch,
    LevelPlanCache,
    LevelSpec,
    encode_graphs,
    fit_scalers,
    merge_encoded,
)
from repro.featurize.graph import (
    CARDINALITY_FEATURE_INDEX,
    FEATURE_DIMS,
    NODE_TYPES,
    PlanGraph,
)
from repro.featurize.scalers import StandardScaler
from repro.nn import MLP, Module, RowState, Tensor, no_grad
from repro.nn import tensor as T
from repro.nn.serialize import save_state
from repro.models.trainer import (
    CoreCostModel,
    saved_config,
    standardization,
)

__all__ = ["ZeroShotConfig", "ZeroShotNet", "ZeroShotCostModel",
           "bottom_up_pass"]


@dataclass(frozen=True)
class ZeroShotConfig:
    """Architecture hyper-parameters."""

    hidden_dim: int = 64
    encoder_hidden: tuple[int, ...] = (64,)
    combine_hidden: tuple[int, ...] = (64,)
    readout_hidden: tuple[int, ...] = (64, 32)
    seed: int = 0
    #: Attach the per-operator cardinality readout head and train it
    #: jointly with the runtime head (multi-task).  Off by default: the
    #: plain runtime model (and every model saved before this flag
    #: existed) is bit-identical with the flag off.
    cardinality_head: bool = False
    #: Relative weight of each per-operator cardinality term against
    #: each runtime term in the multi-task loss.  Applied to both the
    #: prediction and the target before the trainer's absolute-log
    #: loss, for which it is exact.
    cardinality_loss_weight: float = 1.0
    #: Dead-zone (log space) of the residual cardinality head: predicted
    #: corrections smaller than this are snapped to zero, so the model
    #: only overrides the optimizer's estimate when the predicted drift
    #: is material — the same philosophy as the plan selector's
    #: ``switch_margin`` (prediction noise must not perturb estimates
    #: the heuristics already get right).
    cardinality_correction_margin: float = 0.1
    #: Accept graphs carrying a ``system`` node (machine timing
    #: coefficients, see
    #: :data:`repro.featurize.graph.SYSTEM_FEATURE_FIELDS`) — the
    #: hardware-transfer axis.  Off by default: the plain model (and
    #: every model saved before this flag existed) consumes the exact
    #: same rng stream and rejects system nodes loudly.
    system_features: bool = False

    #: See :func:`repro.models.trainer.saved_config`.
    removed_fields: ClassVar[dict] = {"dropout": 0.0,
                                      "activation": "leaky_relu"}

    def __post_init__(self):
        if self.hidden_dim <= 0:
            raise ModelError("hidden_dim must be positive")
        if self.cardinality_loss_weight <= 0:
            raise ModelError("cardinality_loss_weight must be positive")
        if self.cardinality_correction_margin < 0:
            raise ModelError(
                "cardinality_correction_margin must be non-negative")


def bottom_up_pass(hidden: Tensor | np.ndarray, levels: list[LevelSpec],
                   combine_of: Callable[[str], Module]
                   ) -> Tensor | np.ndarray:
    """Final hidden states after the level-by-level bottom-up combine.

    At each level every parent's children are summed (DeepSets) and
    combined with the parent's own state by ``combine_of(node_type)``.
    The one message-passing loop of the library: the zero-shot net
    hands in its per-type combine MLPs, the E2E tree net its single one.
    ``hidden`` is copied once and left alone; the levels update that
    one copy in place (:class:`repro.nn.RowState`), each writing its
    parents' ``h + (c - h)``.  Off the tape the whole pass runs on raw
    ``ndarray`` values, and no level derives its backward rounds
    (:attr:`LevelSpec.grad_sums`).
    """
    state = RowState(hidden)
    for level in levels:
        if len(level.type_slots) == 1:
            # One type owns every slot, in slot order.
            (node_type,) = level.type_slots
            combine = combine_of(node_type)
        else:
            def combine(stacked, level=level):
                return T.scatter_rows(
                    [combine_of(node_type)(T.index_select(stacked, slots))
                     for node_type, slots in level.type_slots.items()],
                    list(level.type_slots.values()), len(level.parent_ids))
        state.level(level.parent_ids, level.child_sums,
                    lambda level=level: level.grad_sums, combine)
    return state.hand_over()


class ZeroShotNet(Module):
    """The neural network: encoders + message passing + readout."""

    def __init__(self, config: ZeroShotConfig):
        super().__init__()
        self.config = config
        rng = np.random.default_rng(config.seed)
        # The "system" encoder (if any) is created *after* the readouts,
        # so every flag combination that existed before the hardware
        # axis consumes the exact same rng stream as it always did.
        for node_type in NODE_TYPES:
            if node_type == "system":
                continue
            self.register_module(
                f"encode_{node_type}",
                MLP(FEATURE_DIMS[node_type], list(config.encoder_hidden),
                    config.hidden_dim, rng),
            )
            self.register_module(
                f"combine_{node_type}",
                MLP(2 * config.hidden_dim, list(config.combine_hidden),
                    config.hidden_dim, rng),
            )
        self.readout = MLP(config.hidden_dim, list(config.readout_hidden), 1,
                           rng)
        if config.cardinality_head:
            # Per-node readout over plan_op hidden states.  Created after
            # the runtime readout so models with the flag off consume the
            # exact same rng stream as before the head existed.
            self.card_readout = MLP(
                config.hidden_dim, list(config.readout_hidden), 1, rng)
        if config.system_features:
            # System nodes are always leaves (they have no children), so
            # only the encoder is ever exercised; the combine module is
            # registered anyway to keep the per-type symmetry every other
            # node type has.
            self.register_module(
                "encode_system",
                MLP(FEATURE_DIMS["system"], list(config.encoder_hidden),
                    config.hidden_dim, rng),
            )
            self.register_module(
                "combine_system",
                MLP(2 * config.hidden_dim, list(config.combine_hidden),
                    config.hidden_dim, rng),
            )

    def _hidden_states(self, batch: GraphBatch) -> Tensor | np.ndarray:
        """Final hidden state of every node after bottom-up passing."""
        # 1. Initial hidden states, placed into one [N, hidden] matrix.
        encoded, positions = [], []
        for node_type in NODE_TYPES:
            features = batch.features[node_type]
            if len(features) == 0:
                continue
            if f"encode_{node_type}" not in self._modules:
                raise ModelError(
                    f"batch contains {node_type!r} nodes but this network "
                    f"was built without them (ZeroShotConfig("
                    f"system_features=True) enables the hardware axis)"
                )
            encoder = self._modules[f"encode_{node_type}"]
            encoded.append(encoder(features))
            positions.append(batch.type_positions[node_type])
        hidden = T.scatter_rows(encoded, positions, batch.num_nodes)

        # 2. Level-by-level bottom-up combine, one MLP per node type.
        return bottom_up_pass(
            hidden, batch.levels,
            lambda node_type: self._modules[f"combine_{node_type}"])

    def forward(self, batch: GraphBatch) -> Tensor | np.ndarray:
        """Predicted log-runtimes, one per graph in the batch."""
        roots = T.index_select(self._hidden_states(batch), batch.roots)
        return T.reshape(self.readout(roots), -1)

    def forward_with_cardinalities(self, batch: GraphBatch) -> tuple:
        """(log-runtimes per graph, log-cardinalities per plan operator).

        One message-passing pass feeds both readouts; the cardinality
        vector aligns row-for-row with ``batch.plan_op_ids``.
        """
        if not self.config.cardinality_head:
            raise ModelError(
                "this network was built without a cardinality head "
                "(ZeroShotConfig(cardinality_head=True))"
            )
        hidden = self._hidden_states(batch)
        runtime = T.reshape(
            self.readout(T.index_select(hidden, batch.roots)), -1)
        ops = T.index_select(hidden, batch.plan_op_ids)
        cardinalities = T.reshape(self.card_readout(ops), -1)
        return runtime, cardinalities


class ZeroShotCostModel(CoreCostModel):
    """User-facing wrapper: scaling + training + prediction + persistence.

    The model consumes :class:`~repro.featurize.graph.PlanGraph` objects
    (raw features); feature scalers are fitted on the training corpus and
    shipped with the weights, so unseen databases are encoded identically.
    Every graph is featurized **once** into an
    :class:`~repro.featurize.batch.EncodedGraph` (scaled feature
    matrices, level arrays, type codes) and batches are assembled by the
    cheap vectorized merge.
    """

    kind = "zero-shot"

    def __init__(self, config: ZeroShotConfig | None = None):
        self.config = config or ZeroShotConfig()
        super().__init__(ZeroShotNet(self.config))
        self.scalers: dict[str, StandardScaler] | None = None
        #: Kept only for ``bench/``'s hit / miss counters: nothing feeds it.
        self.level_cache = LevelPlanCache()
        #: Standardization of the per-operator log-cardinality *residual*
        #: targets — the head predicts the correction
        #: ``log1p(actual) - log1p(estimate)`` over the optimizer's
        #: estimate (only meaningful with ``config.cardinality_head``).
        self.card_mean: float = 0.0
        self.card_std: float = 1.0

    # ------------------------------------------------------------------
    def _encode(self, graphs: list[PlanGraph]) -> list[EncodedGraph]:
        return encode_graphs(graphs, self.scalers)

    collate = staticmethod(merge_encoded)

    def check_training_samples(self, graphs: list[PlanGraph]) -> None:
        """Labels plus both directions of the system-node contract and,
        for the cardinality head, per-operator labels — enforced alike
        for :meth:`fit` and :func:`repro.models.fewshot.fine_tune`,
        before either mutates any state."""
        super().check_training_samples(graphs)
        with_system = sum(bool(len(g.features["system"])) for g in graphs)
        if self.config.system_features and with_system < len(graphs):
            raise ModelError(
                "system_features=True but some training graphs carry no "
                "system node; featurize with system features on "
                "(ZeroShotFeaturizer(system_features=True) / "
                "corpus.featurize(system_features=True))"
            )
        if not self.config.system_features and with_system:
            raise ModelError(
                "training graphs carry system nodes but this model was "
                "built without ZeroShotConfig(system_features=True)"
            )
        if self.config.cardinality_head and any(
                g.target_log_cardinalities is None for g in graphs):
            raise ModelError(
                "training a cardinality-head model needs per-operator "
                "cardinality labels on every graph (ZeroShotEstimator.fit "
                "/ fine_tune attach them from the records, or featurize "
                "with operator_cardinalities) — a runtime-only update "
                "would silently decalibrate the shared trunk against the "
                "cardinality readout"
            )

    def _calibrate(self, graphs: list[PlanGraph]) -> None:
        super()._calibrate(graphs)
        self.scalers = fit_scalers(graphs)
        if self.config.cardinality_head:
            # The head is residual: its target is the log-space
            # correction over the optimizer's own estimate (already a
            # plan_op feature), zero wherever the heuristics are exact.
            self.card_mean, self.card_std = standardization(np.concatenate([
                g.target_log_cardinalities -
                g.feature_matrix("plan_op")[:, CARDINALITY_FEATURE_INDEX]
                for g in graphs
            ]))

    def training_closures(self):
        """``(forward, targets)`` of the runtime loss or, with the
        cardinality head, of the joint loss.

        Both heads share the message-passing trunk; the joint loss is
        the trainer's log-space loss over the concatenation of
        per-graph runtime terms and per-operator cardinality terms.
        Both closures scale the cardinality terms by
        ``config.cardinality_loss_weight``, which is exact for the
        absolute-log loss.
        """
        if not self.config.cardinality_head:
            return super().training_closures()
        weight = self.config.cardinality_loss_weight

        def forward(batch: GraphBatch) -> Tensor | np.ndarray:
            runtime, cards = self.net.forward_with_cardinalities(batch)
            return T.concat([runtime, T.mul(cards, weight)])

        def targets(batch: GraphBatch) -> np.ndarray:
            runtime = (batch.targets - self.target_mean) / self.target_std
            deltas = batch.card_targets - batch.plan_op_log_rows
            cards = weight * ((deltas - self.card_mean) / self.card_std)
            return np.concatenate([runtime, cards])

        return forward, targets

    # ------------------------------------------------------------------
    # Cardinality head
    # ------------------------------------------------------------------
    def predict_cardinalities_from_encoded(self, encoded: list[EncodedGraph]
                                           ) -> list[np.ndarray]:
        """Predicted per-operator output cardinalities (rows, >= 0), one
        array per plan in pre-order (the order
        :func:`repro.plans.plan.walk_plan` yields).

        The head predicts a residual; corrections inside the dead-zone
        are snapped to zero and return the optimizer's row estimate
        *bit-for-bit*, material corrections go through log space.
        """
        if not self.config.cardinality_head:
            raise ModelError(
                "this model has no cardinality head; build it with "
                "ZeroShotConfig(cardinality_head=True)"
            )
        self._require_fitted()
        if not encoded:
            return []
        batch = self.collate(encoded)
        with no_grad():
            _, normalized = self.net.forward_with_cardinalities(batch)
        deltas = normalized * self.card_std + self.card_mean
        margin = self.config.cardinality_correction_margin
        if margin > 0:
            deltas = np.where(np.abs(deltas) < margin, 0.0, deltas)
        rows = np.where(
            deltas == 0.0,
            batch.plan_op_rows,
            np.expm1(batch.plan_op_log_rows + deltas),
        )
        return np.split(np.maximum(rows, 0.0),
                        np.cumsum(batch.plan_op_counts)[:-1])

    def predict_cardinalities(self, graphs: list[PlanGraph]
                              ) -> list[np.ndarray]:
        """Predicted per-operator output cardinalities (rows, >= 0)."""
        return self.predict_cardinalities_from_encoded(self.encode(graphs))

    # ------------------------------------------------------------------
    def clone(self) -> "ZeroShotCostModel":
        """Deep copy (used by few-shot fine-tuning)."""
        other = ZeroShotCostModel(self.config)
        other.net.load_state_dict(self.net.state_dict())
        other.target_mean = self.target_mean
        other.target_std = self.target_std
        other.card_mean = self.card_mean
        other.card_std = self.card_std
        other._fitted = self._fitted
        if self.scalers is not None:
            other.scalers = {
                t: StandardScaler.from_dict(s.to_dict())
                for t, s in self.scalers.items()
            }
        return other

    # ------------------------------------------------------------------
    def save(self, directory: str | os.PathLike) -> None:
        """Persist weights + scalers + config to a directory."""
        if not self.is_fitted:
            raise ModelError("cannot save an unfitted model")
        os.makedirs(directory, exist_ok=True)
        save_state(self.net, os.path.join(directory, "weights.npz"))
        payload = {
            "config": asdict(self.config),
            "scalers": {t: s.to_dict() for t, s in self.scalers.items()},
            "target_mean": self.target_mean,
            "target_std": self.target_std,
            "card_mean": self.card_mean,
            "card_std": self.card_std,
        }
        with open(os.path.join(directory, "model.json"), "w") as handle:
            json.dump(payload, handle)

    @classmethod
    def load(cls, directory: str | os.PathLike) -> "ZeroShotCostModel":
        with open(os.path.join(directory, "model.json")) as handle:
            payload = json.load(handle)
        model = cls(saved_config(ZeroShotConfig, payload["config"]))
        model.restore(os.path.join(directory, "weights.npz"),
                      payload.get("target_mean", 0.0),
                      payload.get("target_std", 1.0))
        model.scalers = {
            t: StandardScaler.from_dict(s)
            for t, s in payload["scalers"].items()
        }
        model.card_mean = float(payload.get("card_mean", 0.0))
        model.card_std = float(payload.get("card_std", 1.0))
        return model
