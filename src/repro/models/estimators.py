"""The built-in :class:`~repro.models.api.CostEstimator` adapters.

One adapter per cost model, each owning the featurization that turns
physical plans into the model's native sample type:

===========================  =============================================
name                         model / native samples
===========================  =============================================
``zero-shot``                :class:`~repro.models.zero_shot.ZeroShotCostModel`
                             over transferable :class:`PlanGraph` DAGs
``flat``                     :class:`~repro.models.flat.FlatVectorCostModel`
                             over pooled plan features (ablation)
``mscn``                     :class:`~repro.models.mscn.MSCNCostModel`
                             over per-database one-hot set samples
``e2e``                      :class:`~repro.models.e2e.E2ECostModel`
                             over per-database plan-tree samples
``scaled-optimizer-cost``    :class:`~repro.models.optimizer_cost.ScaledOptimizerCost`
                             over classical optimizer costs
===========================  =============================================

The workload-driven adapters (``mscn``, ``e2e``) internalize the
out-of-vocabulary fallback the experiment drivers used to hand-roll:
plans their one-hot featurizations cannot encode are priced at the
training-median runtime.
"""

from __future__ import annotations

import os
from dataclasses import asdict
from typing import Any, ClassVar, Sequence

import numpy as np

from repro.db.database import Database
from repro.errors import FeaturizationError, ModelError
from repro.featurize.e2e import E2EFeaturizer
from repro.featurize.graph import CardinalitySource, PlanGraph, ZeroShotFeaturizer
from repro.featurize.mscn import MSCNFeaturizer, MSCNVocabulary
from repro.featurize.scalers import StandardScaler
from repro.models.api import (
    OUT_OF_VOCABULARY,
    CostEstimator,
    _database_map,
    single_database,
)
from repro.models.e2e import E2EConfig, E2ECostModel
from repro.models.fewshot import fine_tune
from repro.models.flat import FlatVectorCostModel
from repro.models.mscn import MSCNConfig, MSCNCostModel
from repro.models.optimizer_cost import ScaledOptimizerCost
from repro.models.trainer import (
    TrainerConfig,
    TrainingHistory,
    saved_config,
)
from repro.models.zero_shot import ZeroShotConfig, ZeroShotCostModel
from repro.nn.serialize import save_state
from repro.plans.plan import PhysicalPlan
from repro.runtime import SystemParameters

__all__ = [
    "E2EEstimator",
    "FlatVectorEstimator",
    "MSCNEstimator",
    "ScaledOptimizerCostEstimator",
    "ZeroShotEstimator",
]

_WEIGHTS_FILE = "weights.npz"


# ----------------------------------------------------------------------
# Transferable estimators (fit across the multi-database fleet)
# ----------------------------------------------------------------------
class _GraphEstimator(CostEstimator):
    """Shared plumbing of the estimators over transferable plan graphs:
    ``self.featurizer`` turns plans into graphs, ``self.model`` (a
    :class:`~repro.models.trainer.CoreCostModel`) consumes them."""

    @property
    def is_fitted(self) -> bool:
        return self.model.is_fitted

    @property
    def history(self) -> TrainingHistory | None:
        return self.model.history

    def _extra_labels(self, record) -> dict:
        """Featurizer keyword labels beyond the runtime (none here)."""
        return {}

    def _labelled_graphs(self, records, databases) -> list[PlanGraph]:
        """Executed records → labelled training graphs (the one
        record-featurize loop behind ``fit`` and ``fine_tune``)."""
        mapping = _database_map(records, databases, self.name)
        return [self.featurizer.featurize(r.plan, mapping[r.database_name],
                                          r.runtime_seconds,
                                          **self._extra_labels(r))
                for r in records]

    def fit(self, records, databases, trainer: TrainerConfig | None = None):
        self.model.fit(self._labelled_graphs(records, databases), trainer)
        return self

    def encode_plans(self, plans, database) -> list[Any]:
        self._require_fitted()
        return self.model.encode(
            [self.featurizer.featurize(p, database) for p in plans])

    def predict_encoded(self, encoded) -> np.ndarray:
        return self.model.predict_log_from_encoded(list(encoded))


class ZeroShotEstimator(_GraphEstimator):
    """The paper's zero-shot model behind the unified contract.

    ``system`` names the machine the estimator prices plans *for* — it
    only matters when the wrapped model was trained with
    :attr:`~repro.models.zero_shot.ZeroShotConfig.system_features`, in
    which case every featurized plan carries that machine's node (the
    hardware-transfer axis).  Hardware-blind models ignore it.
    """

    name = "zero-shot"

    def __init__(self, config: ZeroShotConfig | None = None,
                 source: CardinalitySource = CardinalitySource.ESTIMATED,
                 model: ZeroShotCostModel | None = None,
                 system: SystemParameters | None = None):
        self.source = source
        self.model = model if model is not None else ZeroShotCostModel(config)
        self.system = system
        self.featurizer = ZeroShotFeaturizer(
            source,
            system_features=self.model.config.system_features,
            system=system,
        )

    # -- featurization adapter ----------------------------------------
    def featurize(self, plans: Sequence[PhysicalPlan], database: Database
                  ) -> list[PlanGraph]:
        """Plans → unlabelled transferable plan graphs — the adapter
        behind predict, exposed for callers that manipulate graphs
        directly (ablations)."""
        return [self.featurizer.featurize(p, database) for p in plans]

    # -- contract ------------------------------------------------------
    def fit_graphs(self, graphs: list[PlanGraph],
                   trainer: TrainerConfig | None = None
                   ) -> "ZeroShotEstimator":
        """Fit on pre-featurized graphs (corpus pipelines / ablations
        that transform the encoding before training)."""
        self.model.fit(graphs, trainer)
        return self

    def fine_tune(self, records, database: Database,
                  trainer: TrainerConfig | None = None
                  ) -> "ZeroShotEstimator":
        """Few-shot adaptation: a fine-tuned *copy* on the target
        database's executed records (see :func:`repro.models.fine_tune`).

        Returns an instance of the *caller's* class, so subclasses (the
        cardinality head) keep their full surface and save under their
        own manifest name.
        """
        graphs = self._labelled_graphs(records, database)
        return type(self)(model=fine_tune(self.model, graphs, trainer),
                          source=self.source, system=self.system)

    # -- persistence ---------------------------------------------------
    def save(self, directory) -> None:
        self._require_fitted()
        self.model.save(directory)
        self._write_manifest(directory, {
            "source": self.source.value,
            "system": None if self.system is None else self.system.to_dict(),
        })

    @classmethod
    def load(cls, directory, database: Database | None = None
             ) -> "ZeroShotEstimator":
        payload = cls._read_manifest(directory)
        saved_system = payload.get("system")  # absent in older manifests
        return cls(model=ZeroShotCostModel.load(directory),
                   source=CardinalitySource(payload["source"]),
                   system=None if saved_system is None
                   else SystemParameters.from_dict(saved_system))


class FlatVectorEstimator(_GraphEstimator):
    """The structure-free ablation model behind the unified contract."""

    name = "flat"

    def __init__(self, hidden: tuple[int, ...] = (128, 64), seed: int = 0,
                 source: CardinalitySource = CardinalitySource.ESTIMATED,
                 model: FlatVectorCostModel | None = None):
        self.source = source
        self.model = model if model is not None \
            else FlatVectorCostModel(hidden, seed)
        self.featurizer = ZeroShotFeaturizer(source)

    def save(self, directory) -> None:
        self._require_fitted()
        os.makedirs(directory, exist_ok=True)
        save_state(self.model.net, os.path.join(directory, _WEIGHTS_FILE))
        self._write_manifest(directory, {
            "source": self.source.value,
            "hidden": list(self.model.hidden),
            "seed": self.model.seed,
            "scaler": self.model.scaler.to_dict(),
        })

    @classmethod
    def load(cls, directory, database: Database | None = None
             ) -> "FlatVectorEstimator":
        payload = cls._read_manifest(directory)
        model = FlatVectorCostModel(tuple(payload["hidden"]), payload["seed"])
        model.restore(os.path.join(directory, _WEIGHTS_FILE))
        model.scaler = StandardScaler.from_dict(payload["scaler"])
        return cls(source=CardinalitySource(payload["source"]), model=model)


# ----------------------------------------------------------------------
# Workload-driven estimators (fit on the target database only)
# ----------------------------------------------------------------------
class _WorkloadDrivenEstimator(CostEstimator):
    """Shared plumbing for the one-hot baselines: single training
    database, out-of-vocabulary fallback, fallback bookkeeping and
    persistence.  A subclass names its config / featurizer / core-model
    classes and the record field its featurizer reads, and supplies
    ``_encode_one`` plus the two featurizer-state hooks."""

    config_class: ClassVar[type]
    featurizer_class: ClassVar[type]
    model_class: ClassVar[type]
    #: Which :class:`ExecutedQueryRecord` field the featurizer consumes.
    record_field: ClassVar[str]

    def __init__(self, config=None):
        self.config = config or self.config_class()
        self.model = None
        self.featurizer = None
        self.fallback_log_runtime: float | None = None
        self.database_name: str | None = None

    @property
    def is_fitted(self) -> bool:
        return self.model is not None and self.model.is_fitted

    @property
    def history(self) -> TrainingHistory | None:
        return None if self.model is None else self.model.history

    def _check_database(self, database: Database | None) -> None:
        if database is not None and self.database_name is not None \
                and database.name != self.database_name:
            raise ModelError(
                f"{self.name} estimator was trained on "
                f"{self.database_name!r}, asked to predict on "
                f"{database.name!r} (one-hot featurizations do not "
                f"transfer across databases)"
            )

    def _encode_one(self, plan: PhysicalPlan):
        raise NotImplementedError

    def _featurizer_state(self) -> dict:
        """The fitted featurizer's vocabulary, as manifest entries."""
        raise NotImplementedError

    def _restore_featurizer(self, payload: dict) -> None:
        """Inverse of :meth:`_featurizer_state` onto ``self.featurizer``."""
        raise NotImplementedError

    def fit(self, records, databases, trainer: TrainerConfig | None = None):
        database = single_database(records, databases, self.name)
        inputs = [getattr(r, self.record_field) for r in records]
        self.featurizer = self.featurizer_class(database).fit(inputs)
        self.model = self.model_class(self.featurizer, self.config)
        self.model.fit([self.featurizer.featurize(x, r.runtime_seconds)
                        for x, r in zip(inputs, records)], trainer)
        self.fallback_log_runtime = float(
            np.log(np.median([r.runtime_seconds for r in records])))
        self.database_name = database.name
        return self

    def encode_plans(self, plans, database) -> list[Any]:
        self._require_fitted()
        self._check_database(database)
        encoded: list[Any] = []
        for plan in plans:
            try:
                encoded.extend(self.model.encode([self._encode_one(plan)]))
            except FeaturizationError:
                encoded.append(OUT_OF_VOCABULARY)
        return encoded

    def predict_encoded(self, encoded) -> np.ndarray:
        self._require_fitted()
        encoded = list(encoded)
        out = np.full(len(encoded), self.fallback_log_runtime)
        known = [i for i, sample in enumerate(encoded)
                 if sample is not OUT_OF_VOCABULARY]
        if known:
            out[known] = self.model.predict_log_from_encoded(
                [encoded[i] for i in known])
        return out

    def save(self, directory) -> None:
        self._require_fitted()
        os.makedirs(directory, exist_ok=True)
        save_state(self.model.net, os.path.join(directory, _WEIGHTS_FILE))
        self._write_manifest(directory, {
            "config": asdict(self.config),
            **self._featurizer_state(),
            "target_mean": self.model.target_mean,
            "target_std": self.model.target_std,
            "fallback_log_runtime": self.fallback_log_runtime,
            "database_name": self.database_name,
        })

    @classmethod
    def load(cls, directory, database: Database | None = None):
        payload = cls._read_manifest(directory)
        if database is None:
            raise ModelError(
                f"loading a {cls.name} estimator needs the database it was "
                f"trained on (its featurizer reads live statistics)"
            )
        if database.name != payload["database_name"]:
            raise ModelError(
                f"saved {cls.name} estimator belongs to "
                f"{payload['database_name']!r}, got {database.name!r}"
            )
        estimator = cls(saved_config(cls.config_class, payload["config"]))
        estimator.featurizer = cls.featurizer_class(database)
        estimator._restore_featurizer(payload)
        estimator.model = cls.model_class(estimator.featurizer,
                                          estimator.config)
        estimator.model.restore(os.path.join(directory, _WEIGHTS_FILE),
                                payload["target_mean"], payload["target_std"])
        estimator.fallback_log_runtime = payload["fallback_log_runtime"]
        estimator.database_name = payload["database_name"]
        return estimator


class MSCNEstimator(_WorkloadDrivenEstimator):
    """MSCN (set-based, Kipf et al.) behind the unified contract."""

    name = "mscn"
    config_class = MSCNConfig
    featurizer_class = MSCNFeaturizer
    model_class = MSCNCostModel
    record_field = "query"

    def _encode_one(self, plan: PhysicalPlan):
        return self.featurizer.featurize(plan.query)

    def _featurizer_state(self) -> dict:
        vocabulary = self.featurizer.vocabulary
        return {"vocabulary": {"tables": vocabulary.tables,
                               "joins": vocabulary.joins,
                               "columns": vocabulary.columns}}

    def _restore_featurizer(self, payload: dict) -> None:
        self.featurizer.vocabulary = MSCNVocabulary(**payload["vocabulary"])


class E2EEstimator(_WorkloadDrivenEstimator):
    """E2E (plan-tree, Sun & Li) behind the unified contract."""

    name = "e2e"
    config_class = E2EConfig
    featurizer_class = E2EFeaturizer
    model_class = E2ECostModel
    record_field = "plan"

    def _encode_one(self, plan: PhysicalPlan):
        return self.featurizer.featurize(plan)

    def _featurizer_state(self) -> dict:
        return {"columns": self.featurizer.columns}

    def _restore_featurizer(self, payload: dict) -> None:
        self.featurizer.columns = dict(payload["columns"])


# ----------------------------------------------------------------------
# Classical baseline
# ----------------------------------------------------------------------
class ScaledOptimizerCostEstimator(CostEstimator):
    """Linear optimizer-cost rescaling behind the unified contract."""

    name = "scaled-optimizer-cost"

    def __init__(self, model: ScaledOptimizerCost | None = None):
        self.model = model if model is not None else ScaledOptimizerCost()

    @property
    def is_fitted(self) -> bool:
        return self.model.is_fitted

    def fit(self, records, databases=None,
            trainer: TrainerConfig | None = None
            ) -> "ScaledOptimizerCostEstimator":
        if not records:
            raise ModelError(f"{self.name}: fit needs executed records")
        self.model.fit(np.array([r.optimizer_cost for r in records]),
                       np.array([r.runtime_seconds for r in records]))
        return self

    def encode_plans(self, plans, database) -> list[Any]:
        self._require_fitted()
        return [float(plan.total_cost) for plan in plans]

    def predict_encoded(self, encoded) -> np.ndarray:
        self._require_fitted()
        costs = np.asarray(list(encoded), dtype=np.float64)
        if not len(costs):
            return np.zeros(0)
        return np.log(self.model.predict_runtime(costs))

    def save(self, directory) -> None:
        self._require_fitted()
        self._write_manifest(directory, {"slope": self.model.slope,
                                         "intercept": self.model.intercept})

    @classmethod
    def load(cls, directory, database: Database | None = None
             ) -> "ScaledOptimizerCostEstimator":
        payload = cls._read_manifest(directory)
        model = ScaledOptimizerCost()
        model.slope = float(payload["slope"])
        model.intercept = float(payload["intercept"])
        return cls(model=model)
