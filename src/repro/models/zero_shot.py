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

import numpy as np

from repro.errors import ModelError
from repro.featurize.batch import (
    EncodedGraph,
    GraphBatch,
    LevelPlanCache,
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
from repro.nn import MLP, Module, Tensor, no_grad
from repro.nn.serialize import load_state, save_state
from repro.models.trainer import TrainerConfig, TrainingHistory, train_model

__all__ = ["ZeroShotConfig", "ZeroShotNet", "ZeroShotCostModel"]


@dataclass(frozen=True)
class ZeroShotConfig:
    """Architecture hyper-parameters."""

    hidden_dim: int = 64
    encoder_hidden: tuple[int, ...] = (64,)
    combine_hidden: tuple[int, ...] = (64,)
    readout_hidden: tuple[int, ...] = (64, 32)
    dropout: float = 0.0
    activation: str = "leaky_relu"
    seed: int = 0
    #: Attach the per-operator cardinality readout head and train it
    #: jointly with the runtime head (multi-task).  Off by default: the
    #: plain runtime model (and every model saved before this flag
    #: existed) is bit-identical with the flag off.
    cardinality_head: bool = False
    #: Relative weight of each per-operator cardinality term against
    #: each runtime term in the multi-task loss.  Applied to both the
    #: prediction and the target before the trainer's loss, so it is
    #: exact for the default absolute-log (``"q"``) loss; under
    #: ``"mse"`` the effective relative weight is its square.
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

    def __post_init__(self):
        if self.hidden_dim <= 0:
            raise ModelError("hidden_dim must be positive")
        if self.cardinality_loss_weight <= 0:
            raise ModelError("cardinality_loss_weight must be positive")
        if self.cardinality_correction_margin < 0:
            raise ModelError(
                "cardinality_correction_margin must be non-negative")


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
                    config.hidden_dim, rng, activation=config.activation,
                    dropout=config.dropout),
            )
            self.register_module(
                f"combine_{node_type}",
                MLP(2 * config.hidden_dim, list(config.combine_hidden),
                    config.hidden_dim, rng, activation=config.activation,
                    dropout=config.dropout),
            )
        self.readout = MLP(config.hidden_dim, list(config.readout_hidden), 1,
                           rng, activation=config.activation,
                           dropout=config.dropout)
        if config.cardinality_head:
            # Per-node readout over plan_op hidden states.  Created after
            # the runtime readout so models with the flag off consume the
            # exact same rng stream as before the head existed.
            self.card_readout = MLP(
                config.hidden_dim, list(config.readout_hidden), 1, rng,
                activation=config.activation, dropout=config.dropout,
            )
        if config.system_features:
            # System nodes are always leaves (they have no children), so
            # only the encoder is ever exercised; the combine module is
            # registered anyway to keep the per-type symmetry every other
            # node type has.
            self.register_module(
                "encode_system",
                MLP(FEATURE_DIMS["system"], list(config.encoder_hidden),
                    config.hidden_dim, rng, activation=config.activation,
                    dropout=config.dropout),
            )
            self.register_module(
                "combine_system",
                MLP(2 * config.hidden_dim, list(config.combine_hidden),
                    config.hidden_dim, rng, activation=config.activation,
                    dropout=config.dropout),
            )

    def hidden_states(self, batch: GraphBatch) -> Tensor:
        """Final hidden state of every node after bottom-up passing."""
        hidden_dim = self.config.hidden_dim

        # 1. Initial hidden states, scattered into one [N, hidden] matrix.
        hidden = Tensor(np.zeros((batch.num_nodes, hidden_dim)))
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
            encoded = encoder(Tensor(features))
            hidden = hidden + encoded.scatter_add(
                batch.type_positions[node_type], batch.num_nodes
            )

        # 2. Level-by-level bottom-up combine.
        for level in batch.levels:
            num_parents = len(level.parent_ids)
            child_hidden = hidden.index_select(level.edge_child_ids)
            child_sum = child_hidden.scatter_add(level.edge_parent_slots,
                                                 num_parents)
            parent_hidden = hidden.index_select(level.parent_ids)
            combined = Tensor(np.zeros((num_parents, hidden_dim)))
            for node_type, slots in level.type_slots.items():
                combine = self._modules[f"combine_{node_type}"]
                stacked = Tensor.concat(
                    [parent_hidden.index_select(slots),
                     child_sum.index_select(slots)], axis=1
                )
                combined = combined + combine(stacked).scatter_add(
                    slots, num_parents
                )
            delta = combined - parent_hidden
            hidden = hidden + delta.scatter_add(level.parent_ids,
                                                batch.num_nodes)
        return hidden

    def forward(self, batch: GraphBatch) -> Tensor:
        """Predicted log-runtimes, one per graph in the batch."""
        roots = self.hidden_states(batch).index_select(batch.roots)
        return self.readout(roots).reshape(-1)

    def forward_with_cardinalities(self, batch: GraphBatch
                                   ) -> tuple[Tensor, Tensor]:
        """(log-runtimes per graph, log-cardinalities per plan operator).

        One message-passing pass feeds both readouts; the cardinality
        vector aligns row-for-row with ``batch.features["plan_op"]``.
        """
        if not self.config.cardinality_head:
            raise ModelError(
                "this network was built without a cardinality head "
                "(ZeroShotConfig(cardinality_head=True))"
            )
        hidden = self.hidden_states(batch)
        runtime = self.readout(hidden.index_select(batch.roots)).reshape(-1)
        ops = hidden.index_select(batch.type_positions["plan_op"])
        cardinalities = self.card_readout(ops).reshape(-1)
        return runtime, cardinalities


class ZeroShotCostModel:
    """User-facing wrapper: scaling + training + prediction + persistence.

    The model consumes :class:`~repro.featurize.graph.PlanGraph` objects
    (raw features); feature scalers are fitted on the training corpus and
    shipped with the weights, so unseen databases are encoded identically.
    """

    def __init__(self, config: ZeroShotConfig | None = None):
        self.config = config or ZeroShotConfig()
        self.net = ZeroShotNet(self.config)
        self.scalers: dict[str, StandardScaler] | None = None
        self.history: TrainingHistory | None = None
        #: Encode-once discipline, level up: the structural half of a
        #: merged batch (level grouping, edge slots) depends only on
        #: the graph list, so fixed train/validation batches and
        #: repeated serving batches reuse it across calls instead of
        #: re-deriving it each step.  Cache hits are bit-identical to
        #: fresh derivation (see ``featurize/batch.py``).
        self.level_cache = LevelPlanCache()
        #: Log-runtime targets are standardized for training; the
        #: statistics are shipped with the model.
        self.target_mean: float = 0.0
        self.target_std: float = 1.0
        #: Standardization of the per-operator log-cardinality *residual*
        #: targets — the head predicts the correction
        #: ``log1p(actual) - log1p(estimate)`` over the optimizer's
        #: estimate (only meaningful with ``config.cardinality_head``).
        self.card_mean: float = 0.0
        self.card_std: float = 1.0

    # ------------------------------------------------------------------
    @property
    def is_fitted(self) -> bool:
        return self.scalers is not None

    def fit(self, graphs: list[PlanGraph],
            trainer: TrainerConfig | None = None) -> TrainingHistory:
        """Train on labelled graphs (from *multiple* training databases).

        Every graph is featurized **once** into an
        :class:`~repro.featurize.batch.EncodedGraph` (scaled feature
        matrices, level arrays, type codes) and each mini-batch is
        assembled by the cheap vectorized merge; the validation batch
        is built a single time.
        """
        if not graphs:
            raise ModelError("zero-shot training needs at least one graph")
        if any(g.target_log_runtime is None for g in graphs):
            raise ModelError("all training graphs need runtime labels")
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
        # Validate BEFORE mutating state: a rejected multi-task fit must
        # not leave the model half-fitted (scalers set => is_fitted).
        if self.config.cardinality_head and any(
                g.target_log_cardinalities is None for g in graphs):
            raise ModelError(
                "cardinality-head training needs per-operator "
                "cardinality labels on every graph (featurize with "
                "operator cardinalities / corpus.featurize("
                "with_cardinalities=True))"
            )
        self.scalers = fit_scalers(graphs)
        trainer = trainer or TrainerConfig()
        all_targets = np.asarray([g.target_log_runtime for g in graphs])
        self.target_mean = float(all_targets.mean())
        self.target_std = float(max(all_targets.std(), 1e-6))

        if self.config.cardinality_head:
            return self._fit_multi_task(graphs, trainer)

        encoded = encode_graphs(graphs, self.scalers)

        def forward(batch: GraphBatch) -> Tensor:
            return self.net(batch)

        def targets(batch: GraphBatch) -> Tensor:
            return Tensor((batch.targets - self.target_mean)
                          / self.target_std)

        self.history = train_model(
            self.net, encoded, forward, targets, trainer,
            collate=lambda items: merge_encoded(
                items, require_targets=True, level_cache=self.level_cache),
        )
        return self.history

    def multi_task_closures(self):
        """``(forward, targets)`` closures of the joint loss, using the
        model's *current* calibration (target/card statistics).

        Shared by :meth:`fit` and few-shot fine-tuning
        (:func:`repro.models.fewshot.fine_tune`), so the two training
        paths can never drift apart.  Both closures scale the
        cardinality terms by ``config.cardinality_loss_weight`` — the
        weighting is exact for the default absolute-log (``"q"``) loss;
        under ``"mse"`` the effective relative weight is its square.
        """
        self._require_cardinality_head()
        weight = self.config.cardinality_loss_weight

        def forward(batch: GraphBatch) -> Tensor:
            runtime, cards = self.net.forward_with_cardinalities(batch)
            return Tensor.concat([runtime, cards * weight])

        def targets(batch: GraphBatch) -> Tensor:
            runtime = (batch.targets - self.target_mean) / self.target_std
            deltas = batch.card_targets - batch.plan_op_log_rows
            cards = weight * ((deltas - self.card_mean) / self.card_std)
            return Tensor(np.concatenate([runtime, cards]))

        return forward, targets

    def _fit_multi_task(self, graphs: list[PlanGraph],
                        trainer: TrainerConfig) -> TrainingHistory:
        """Joint runtime + per-operator log-cardinality training.

        Both heads share the message-passing trunk; the loss is the
        trainer's log-space loss over the concatenation of per-graph
        runtime terms and per-operator cardinality terms, the latter
        scaled by ``config.cardinality_loss_weight``.

        The cardinality head is **residual**: its target is the log-space
        correction ``log1p(actual) - log1p(estimate)`` over the
        optimizer's own estimate (already a plan_op feature).  Where the
        histogram heuristics are exact the correction is zero, so the
        head spends its capacity exactly where the paper says the
        heuristics drift — on correlated data.

        Inputs were validated by :meth:`fit` (card labels present)
        before any state mutation.
        """
        all_deltas = np.concatenate([
            g.target_log_cardinalities -
            g.feature_matrix("plan_op")[:, CARDINALITY_FEATURE_INDEX]
            for g in graphs
        ])
        self.card_mean = float(all_deltas.mean())
        self.card_std = float(max(all_deltas.std(), 1e-6))
        encoded = encode_graphs(graphs, self.scalers)
        forward, targets = self.multi_task_closures()

        self.history = train_model(
            self.net, encoded, forward, targets, trainer,
            collate=lambda items: merge_encoded(
                items, require_targets=True, level_cache=self.level_cache),
        )
        return self.history

    def predict_log_runtime(self, graphs: list[PlanGraph]) -> np.ndarray:
        if not self.is_fitted:
            raise ModelError("model must be fitted (or loaded) before predict")
        if not graphs:
            return np.zeros(0)
        return self.predict_log_from_encoded(encode_graphs(graphs,
                                                           self.scalers))

    def predict_log_from_encoded(self, encoded: list[EncodedGraph]
                                 ) -> np.ndarray:
        """Predicted log-runtimes for graphs encoded ahead of time.

        The per-graph :func:`~repro.featurize.batch.encode_graph`
        precompute (with this model's scalers) is the expensive step;
        callers that hold plans for repeated prediction — notably
        :class:`repro.serve.CostModelService` — cache it and pay only
        the cheap merge + forward here.
        """
        if not self.is_fitted:
            raise ModelError("model must be fitted (or loaded) before predict")
        if not encoded:
            return np.zeros(0)
        self.net.eval()
        with no_grad():
            batch = merge_encoded(encoded, level_cache=self.level_cache)
            normalized = self.net(batch).numpy().copy()
        return normalized * self.target_std + self.target_mean

    def predict_runtime(self, graphs: list[PlanGraph]) -> np.ndarray:
        """Predicted runtimes in seconds."""
        return np.exp(self.predict_log_runtime(graphs))

    # ------------------------------------------------------------------
    # Cardinality head
    # ------------------------------------------------------------------
    def _require_cardinality_head(self) -> None:
        if not self.config.cardinality_head:
            raise ModelError(
                "this model has no cardinality head; build it with "
                "ZeroShotConfig(cardinality_head=True)"
            )

    def _require_cardinality_predict(self) -> None:
        self._require_cardinality_head()
        if not self.is_fitted:
            raise ModelError("model must be fitted (or loaded) before predict")

    def _predicted_deltas(self, encoded: list[EncodedGraph]
                          ) -> tuple[GraphBatch, np.ndarray]:
        """Shared forward pass of the residual head: the merged batch
        plus the de-normalized, dead-zone-snapped per-operator
        corrections (every prediction surface derives from these)."""
        self.net.eval()
        with no_grad():
            batch = merge_encoded(encoded, level_cache=self.level_cache)
            _, cards = self.net.forward_with_cardinalities(batch)
            normalized = cards.numpy().copy()
        deltas = normalized * self.card_std + self.card_mean
        margin = self.config.cardinality_correction_margin
        if margin > 0:
            deltas = np.where(np.abs(deltas) < margin, 0.0, deltas)
        return batch, deltas

    @staticmethod
    def _split_per_plan(values: np.ndarray,
                        batch: GraphBatch) -> list[np.ndarray]:
        offsets = np.cumsum([0] + batch.plan_op_counts)
        return [values[start:stop]
                for start, stop in zip(offsets[:-1], offsets[1:])]

    def predict_log_cardinalities_from_encoded(
            self, encoded: list[EncodedGraph]) -> list[np.ndarray]:
        """Per-plan arrays of predicted log1p operator cardinalities.

        Each array aligns with the plan's operators in pre-order (the
        order :func:`repro.plans.plan.walk_plan` yields).  The head's
        output is a residual correction; the returned values are the
        corrected absolute log-cardinalities (estimate + correction).
        """
        self._require_cardinality_predict()
        if not encoded:
            return []
        batch, deltas = self._predicted_deltas(encoded)
        return self._split_per_plan(batch.plan_op_log_rows + deltas, batch)

    def predict_log_cardinalities(self, graphs: list[PlanGraph]
                                  ) -> list[np.ndarray]:
        self._require_cardinality_predict()
        if not graphs:
            return []
        return self.predict_log_cardinalities_from_encoded(
            encode_graphs(graphs, self.scalers))

    def predict_cardinalities_from_encoded(self, encoded: list[EncodedGraph]
                                           ) -> list[np.ndarray]:
        """Predicted per-operator output cardinalities (rows, >= 0).

        Zero residual corrections (inside the dead-zone) return the
        optimizer's row estimate *bit-for-bit*; material corrections go
        through log space.
        """
        self._require_cardinality_predict()
        if not encoded:
            return []
        batch, deltas = self._predicted_deltas(encoded)
        rows = np.where(
            deltas == 0.0,
            batch.plan_op_rows,
            np.expm1(batch.plan_op_log_rows + deltas),
        )
        return self._split_per_plan(np.maximum(rows, 0.0), batch)

    def predict_cardinalities(self, graphs: list[PlanGraph]
                              ) -> list[np.ndarray]:
        """Predicted per-operator output cardinalities (rows, >= 0)."""
        self._require_cardinality_predict()
        if not graphs:
            return []
        return self.predict_cardinalities_from_encoded(
            encode_graphs(graphs, self.scalers))

    # ------------------------------------------------------------------
    def clone(self) -> "ZeroShotCostModel":
        """Deep copy (used by few-shot fine-tuning)."""
        other = ZeroShotCostModel(self.config)
        other.net.load_state_dict(self.net.state_dict())
        other.target_mean = self.target_mean
        other.target_std = self.target_std
        other.card_mean = self.card_mean
        other.card_std = self.card_std
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
        config_dict = dict(payload["config"])
        for key in ("encoder_hidden", "combine_hidden", "readout_hidden"):
            config_dict[key] = tuple(config_dict[key])
        model = cls(ZeroShotConfig(**config_dict))
        load_state(model.net, os.path.join(directory, "weights.npz"))
        model.scalers = {
            t: StandardScaler.from_dict(s)
            for t, s in payload["scalers"].items()
        }
        model.target_mean = float(payload.get("target_mean", 0.0))
        model.target_std = float(payload.get("target_std", 1.0))
        model.card_mean = float(payload.get("card_mean", 0.0))
        model.card_std = float(payload.get("card_std", 1.0))
        return model
