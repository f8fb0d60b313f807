"""The unified cost-estimator API: one contract for every cost model.

The paper's pitch is *one model to rule them all*, yet the natural
implementations of the four cost models speak four different input
languages: the zero-shot and flat models consume
:class:`~repro.featurize.graph.PlanGraph` objects, MSCN consumes
:class:`~repro.featurize.mscn.MSCNSample` sets and E2E consumes
:class:`~repro.featurize.e2e.E2ETreeSample` trees.  Historically every
caller — experiment drivers, the index advisor, the learned planner —
hand-rolled featurization and dispatch for each model it touched.

:class:`CostEstimator` is the single contract that replaces those
bespoke adapters.  Every estimator

* owns its **featurization adapter**: callers hand over physical plans
  (or SQL text / parsed queries, which are planned through the
  existing parser → planner path) and the estimator turns them into
  its native sample type internally;
* splits prediction into :meth:`CostEstimator.encode_plans` (the
  per-plan precompute, cacheable by the serving layer) and
  :meth:`CostEstimator.predict_encoded` (the batched model forward),
  with :meth:`CostEstimator.predict_runtime` composing the two;
* raises the same :class:`~repro.errors.ModelError` when used before
  ``fit`` (or ``load``), and persists itself with ``save``/``load``.

Estimators are named: ``repro.models.ESTIMATORS`` maps each short name
to its class, and :func:`get_estimator` / :func:`load_estimator` /
:func:`peek_manifest` dispatch on it::

    from repro.models import get_estimator

    est = get_estimator("mscn")
    est.fit(executed_records, database)
    runtimes = est.predict_runtime(plans, database)

The batched serving layer on top of this contract lives in
:mod:`repro.serve`.
"""

from __future__ import annotations

import abc
import json
import os
from typing import TYPE_CHECKING, Any, ClassVar, Mapping, Sequence

import numpy as np

from repro.db.database import Database
from repro.errors import ModelError
from repro.plans.plan import PhysicalPlan
from repro.sql.ast import Query

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.models.trainer import TrainerConfig, TrainingHistory
    from repro.workload.runner import ExecutedQueryRecord

__all__ = [
    "OUT_OF_VOCABULARY",
    "CostEstimator",
    "get_estimator",
    "load_estimator",
    "peek_manifest",
    "resolve_plans",
]

#: Sentinel returned by ``encode_plans`` for a plan the estimator's
#: (non-transferable) featurization cannot encode — e.g. a query whose
#: tables are outside MSCN's one-hot vocabulary.  ``predict_encoded``
#: prices such plans with the training-median runtime, the best a
#: one-hot model can do (and how vocabulary gaps surface as error
#: spikes in the paper's workload-driven curves).
OUT_OF_VOCABULARY = object()

#: File name of the persistence manifest every estimator writes; its
#: ``"name"`` field lets :func:`load_estimator` dispatch to the class.
ESTIMATOR_MANIFEST = "estimator.json"


# ----------------------------------------------------------------------
# Input normalization: SQL text / parsed queries / physical plans
# ----------------------------------------------------------------------
def resolve_plans(items: Sequence["PhysicalPlan | Query | str"],
                  database: Database | None) -> list[PhysicalPlan]:
    """Normalize a mixed batch of SQL / queries / plans to plans.

    Strings are parsed with :func:`repro.sql.parse_query` and planned
    with :func:`repro.optimizer.plan_query`; parsed queries skip the
    parsing step; physical plans pass through untouched.  Planning
    requires ``database``.
    """
    resolved: list[PhysicalPlan] = []
    for item in items:
        if isinstance(item, PhysicalPlan):
            resolved.append(item)
            continue
        if database is None:
            raise ModelError(
                "predicting from SQL text or parsed queries requires a "
                "database (plans were not pre-planned)"
            )
        # Lazy: repro.optimizer pulls in the planner stack, which the
        # plan-only prediction path never needs.
        from repro.optimizer import plan_query
        from repro.sql import parse_query

        if isinstance(item, str):
            item = parse_query(item)
        if not isinstance(item, Query):
            raise ModelError(
                f"cannot interpret {type(item).__name__!r} as SQL text, "
                f"a parsed query or a physical plan"
            )
        resolved.append(plan_query(database, item))
    return resolved


def _database_map(records: Sequence["ExecutedQueryRecord"],
                  databases: Database | Mapping[str, Database],
                  estimator_name: str) -> dict[str, Database]:
    """Resolve the database of every training record, validating names."""
    if isinstance(databases, Database):
        mapping = {databases.name: databases}
    else:
        mapping = dict(databases)
    for record in records:
        if record.database_name not in mapping:
            raise ModelError(
                f"{estimator_name}: training record executed on "
                f"{record.database_name!r}, but no such database was given "
                f"(have {sorted(mapping)})"
            )
    return mapping


def single_database(records: Sequence["ExecutedQueryRecord"],
                    databases: Database | Mapping[str, Database],
                    estimator_name: str) -> Database:
    """The one database a workload-driven estimator trains on.

    MSCN/E2E featurizations one-hot encode database identities, so a
    training set spanning several databases is a caller bug — surfaced
    here instead of as nonsense predictions.
    """
    mapping = _database_map(records, databases, estimator_name)
    names = {record.database_name for record in records}
    if len(names) > 1:
        raise ModelError(
            f"{estimator_name} is workload-driven: it trains on exactly one "
            f"database, got records from {sorted(names)}"
        )
    if not names:
        raise ModelError(f"{estimator_name}: fit needs at least one "
                         f"executed record")
    return mapping[names.pop()]


# ----------------------------------------------------------------------
# The contract
# ----------------------------------------------------------------------
class CostEstimator(abc.ABC):
    """Uniform surface over every cost model (see the module docstring).

    Concrete estimators implement ``fit``, ``encode_plans``,
    ``predict_encoded``, ``save``/``load`` and ``is_fitted``; the base
    class composes them into ``predict_log_runtime`` /
    ``predict_runtime`` with uniform unfitted-use and empty-batch
    handling.
    """

    #: Short name, e.g. ``"zero-shot"``; set by each subclass.
    name: ClassVar[str] = ""

    # -- state ---------------------------------------------------------
    @property
    @abc.abstractmethod
    def is_fitted(self) -> bool:
        """Whether the estimator can predict (fitted or loaded)."""

    def _require_fitted(self) -> None:
        if not self.is_fitted:
            raise ModelError(
                f"{self.name} estimator used before fit() or load()"
            )

    # -- training ------------------------------------------------------
    @abc.abstractmethod
    def fit(self, records: Sequence["ExecutedQueryRecord"],
            databases: Database | Mapping[str, Database],
            trainer: "TrainerConfig | None" = None) -> "CostEstimator":
        """Train on executed query records; returns ``self`` for chaining.

        ``databases`` maps each record's ``database_name`` to its
        :class:`~repro.db.database.Database` (a bare database is
        accepted for single-database training sets).
        """

    @property
    def history(self) -> "TrainingHistory | None":
        """Training history of the last ``fit`` (None if not trained,
        or for closed-form estimators)."""
        return None

    # -- prediction ----------------------------------------------------
    @abc.abstractmethod
    def encode_plans(self, plans: Sequence[PhysicalPlan],
                     database: Database | None) -> list[Any]:
        """Featurize plans into per-plan encoded samples (the one-time
        precompute ``repro.serve`` caches); out-of-vocabulary plans map
        to :data:`OUT_OF_VOCABULARY`."""

    @abc.abstractmethod
    def predict_encoded(self, encoded: Sequence[Any]) -> np.ndarray:
        """Predicted *log* runtimes for pre-encoded samples (batched)."""

    def predict_log_runtime(self, plans: Sequence["PhysicalPlan | Query | str"],
                            database: Database | None = None) -> np.ndarray:
        """Predicted log-runtimes for plans / queries / SQL text."""
        self._require_fitted()
        resolved = resolve_plans(plans, database)
        if not resolved:
            return np.zeros(0)
        return self.predict_encoded(self.encode_plans(resolved, database))

    def predict_runtime(self, plans: Sequence["PhysicalPlan | Query | str"],
                        database: Database | None = None) -> np.ndarray:
        """Predicted runtimes in seconds."""
        return np.exp(self.predict_log_runtime(plans, database))

    # -- persistence ---------------------------------------------------
    @abc.abstractmethod
    def save(self, directory: str | os.PathLike) -> None:
        """Persist the fitted estimator to a directory."""

    @classmethod
    @abc.abstractmethod
    def load(cls, directory: str | os.PathLike,
             database: Database | None = None) -> "CostEstimator":
        """Restore a saved estimator.  Workload-driven estimators need
        the ``database`` they were trained on (their featurizers read
        its statistics at predict time)."""

    # -- shared persistence helpers ------------------------------------
    def _write_manifest(self, directory: str | os.PathLike,
                        payload: dict) -> None:
        os.makedirs(directory, exist_ok=True)
        payload = {"name": self.name, **payload}
        with open(os.path.join(directory, ESTIMATOR_MANIFEST), "w") as handle:
            json.dump(payload, handle)

    @classmethod
    def _read_manifest(cls, directory: str | os.PathLike) -> dict:
        path = os.path.join(directory, ESTIMATOR_MANIFEST)
        try:
            with open(path) as handle:
                payload = json.load(handle)
        except FileNotFoundError:
            raise ModelError(f"{path!r} does not contain a saved estimator")
        except ValueError as error:     # not JSON, or not UTF-8
            raise ModelError(
                f"{path!r} is not a readable estimator manifest: {error}"
            ) from None
        if not isinstance(payload, dict):
            raise ModelError(f"{path!r} holds a {type(payload).__name__}, "
                             f"not an estimator manifest object")
        if cls.name and payload.get("name") != cls.name:
            raise ModelError(
                f"directory holds a {payload.get('name')!r} estimator, "
                f"expected {cls.name!r}"
            )
        return payload


# ----------------------------------------------------------------------
# Dispatch by name
# ----------------------------------------------------------------------
def _estimator_class(name: Any, unknown: str) -> type[CostEstimator]:
    """The class named ``name``, else :class:`~repro.errors.ModelError`
    with the message ``unknown`` and the known names."""
    # Lazy: the estimator classes subclass CostEstimator, so the table
    # naming them (repro.models.ESTIMATORS) is built after this module.
    from repro.models import ESTIMATORS

    if isinstance(name, str) and name in ESTIMATORS:
        return ESTIMATORS[name]
    raise ModelError(f"{unknown}; available: {', '.join(sorted(ESTIMATORS))}")


def get_estimator(name: str, **kwargs) -> CostEstimator:
    """Instantiate an estimator by name.

    Keyword arguments are forwarded to the class (e.g.
    ``get_estimator("zero-shot", source=CardinalitySource.ACTUAL)``).
    """
    return _estimator_class(name, f"unknown estimator {name!r}")(**kwargs)


def peek_manifest(directory: str | os.PathLike) -> dict:
    """Read a saved estimator's manifest without loading any weights.

    The serving tier's pre-swap validation hook: before
    :class:`repro.serve.server.PredictionServer` hot-swaps a model in
    from disk, it peeks at the manifest to confirm the directory holds
    a loadable estimator and to derive the new version's tag from the
    manifest ``"name"``.  Raises :class:`~repro.errors.ModelError` when
    the directory holds no readable manifest or the manifest names no
    known estimator.
    """
    payload = CostEstimator._read_manifest(directory)
    _estimator_class(payload.get("name"),
                     f"manifest in {os.fspath(directory)!r} names estimator "
                     f"{payload.get('name')!r}, which no estimator class "
                     f"loads")
    return payload


def load_estimator(directory: str | os.PathLike,
                   database: Database | None = None) -> CostEstimator:
    """Restore a saved estimator, dispatching on its manifest name.

    The inverse of :meth:`CostEstimator.save` without having to know
    which model was saved — the serving layer's deployment path.
    """
    name = peek_manifest(directory)["name"]
    return _estimator_class(name, f"unknown estimator {name!r}").load(
        directory, database)
