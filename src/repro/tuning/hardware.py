"""Hardware what-if advisor: "should I buy faster disks?".

The index advisor answers *physical-design* what-ifs; this module
answers *hardware* what-ifs with the same trained model.  A
hardware-aware zero-shot model (one trained with
:attr:`~repro.models.zero_shot.ZeroShotConfig.system_features`) encodes
the machine as a first-class input, so re-pricing a workload under a
candidate machine is one featurization away — no re-training, no
benchmark runs on hardware nobody has bought yet.

:class:`HardwareAdvisor` plans the workload once, then prices the same
plans under every other named machine of
:func:`~repro.runtime.available_system_configs` and ranks them against
the baseline machine.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.db.database import Database
from repro.errors import ModelError
from repro.models.cardinality import require_deployable
from repro.models.estimators import ZeroShotEstimator
from repro.optimizer.planner import Planner
from repro.runtime import (
    SystemParameters,
    available_system_configs,
    get_system_config,
)
from repro.sql.ast import Query

__all__ = ["HardwareAdvisor", "HardwareOption", "HardwareRecommendation"]


@dataclass
class HardwareOption:
    """One candidate machine, priced for the workload."""

    name: str
    system: SystemParameters
    predicted_seconds: float
    baseline_seconds: float

    @property
    def predicted_speedup(self) -> float:
        """>1 means the candidate is predicted faster than the baseline."""
        if self.predicted_seconds <= 0:
            return 1.0
        return self.baseline_seconds / self.predicted_seconds


@dataclass
class HardwareRecommendation:
    """Result of one hardware what-if run, fastest candidate first."""

    baseline_name: str
    baseline_seconds: float
    options: list[HardwareOption] = field(default_factory=list)

    @property
    def best(self) -> HardwareOption:
        if not self.options:
            raise ModelError("recommendation has no candidate machines")
        return self.options[0]

    @property
    def worth_upgrading(self) -> bool:
        """Is any candidate predicted faster than the baseline?"""
        return bool(self.options) and self.best.predicted_speedup > 1.0


class HardwareAdvisor:
    """Rank candidate machines by predicted workload runtime.

    ``estimator`` must be a fitted hardware-aware
    :class:`~repro.models.estimators.ZeroShotEstimator` over estimated
    cardinalities (its model trained with ``system_features=True`` over
    a multi-machine corpus) — a hardware-blind model would predict the
    same runtime on every machine, which is exactly the failure mode
    this advisor exists to replace.
    """

    def __init__(self, database: Database, estimator: ZeroShotEstimator,
                 baseline: str = "default"):
        require_deployable(estimator, "hardware advisor")
        if not isinstance(estimator, ZeroShotEstimator):
            raise ModelError(
                f"hardware advisor needs a ZeroShotEstimator, got "
                f"{type(estimator).__name__}"
            )
        if not estimator.model.config.system_features:
            raise ModelError(
                "hardware advisor needs a hardware-aware model: train "
                "with ZeroShotConfig(system_features=True) over a "
                "multi-machine corpus"
            )
        self.database = database
        self.estimator = estimator
        self.baseline_name = baseline
        self.baseline_system = get_system_config(baseline)
        self._planner = Planner(database)

    def _price(self, plans, system: SystemParameters) -> float:
        # The same model, featurizing for the machine being priced.
        estimator = ZeroShotEstimator(model=self.estimator.model,
                                      source=self.estimator.source,
                                      system=system)
        return float(np.sum(estimator.predict_runtime(plans, self.database)))

    def recommend(self, queries: list[Query]) -> HardwareRecommendation:
        """Price the workload on the baseline and every other named
        machine.

        The workload is planned **once** (plans do not depend on the
        machine — the simulated optimizer costs with fixed constants),
        then re-priced per machine through the model's system node.
        Candidates come back sorted fastest-first.
        """
        if not queries:
            raise ModelError("hardware advisor needs a non-empty workload")
        plans = [self._planner.plan(query) for query in queries]
        baseline_seconds = self._price(plans, self.baseline_system)
        options = []
        for name in available_system_configs():
            if name != self.baseline_name:
                system = get_system_config(name)
                options.append(HardwareOption(
                    name=name,
                    system=system,
                    predicted_seconds=self._price(plans, system),
                    baseline_seconds=baseline_seconds,
                ))
        options.sort(key=lambda option: option.predicted_seconds)
        return HardwareRecommendation(
            baseline_name=self.baseline_name,
            baseline_seconds=baseline_seconds,
            options=options,
        )
