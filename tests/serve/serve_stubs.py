"""Closed-form stub estimators for the serving-tier concurrency suite.

The properties under test — cross-client batching, bit-identity under
thread interleavings, fault isolation, hot swap — are
estimator-independent, so the suite runs on deterministic stubs (no
training) and stays fast and schedule-deterministic.  Integration with
the real estimator stack is covered by ``test_service.py`` (trained
zero-shot model) and ``benchmarks/test_serving.py``.
"""

import threading

import numpy as np

from repro.errors import ModelError
from repro.models.api import CostEstimator

#: Generous upper bound on any single wait in the suite — far above
#: real latencies, far below the CI hard timeout, so a hang surfaces as
#: a test failure instead of a stuck job.
WAIT = 30.0


class LinearCostStub(CostEstimator):
    """Closed-form estimator: runtime = optimizer cost × ``scale``.

    Deterministic and batch-size invariant by construction (elementwise
    numpy ops), so served responses must match direct predictions bit
    for bit.  Distinct ``scale`` values make model versions
    distinguishable in hot-swap tests: a response's value proves which
    version answered it.
    """

    name = "linear-cost-stub"

    def __init__(self, scale: float = 1.0):
        self.scale = float(scale)

    @property
    def is_fitted(self) -> bool:
        return True

    def fit(self, records, databases, trainer=None):
        return self

    def encode_plans(self, plans, database):
        return [float(plan.total_cost) for plan in plans]

    def predict_encoded(self, encoded):
        costs = np.asarray(list(encoded), dtype=np.float64)
        return np.log(costs * self.scale)

    def save(self, directory):
        self._write_manifest(directory, {"scale": self.scale})

    @classmethod
    def load(cls, directory, database=None):
        return cls(scale=cls._read_manifest(directory)["scale"])


class GatedStub(LinearCostStub):
    """A stub whose forward blocks until the test releases it — used to
    hold the batcher busy so queue depth is controlled deterministically
    (no sleeps, no timing races)."""

    name = "gated-cost-stub"

    def __init__(self, scale: float = 1.0):
        super().__init__(scale)
        self.entered = threading.Event()
        self.release = threading.Event()

    def predict_encoded(self, encoded):
        self.entered.set()
        if not self.release.wait(WAIT):  # pragma: no cover - deadlock guard
            raise ModelError("GatedStub never released")
        return super().predict_encoded(encoded)


class PoisonStub(LinearCostStub):
    """A stub that raises mid-batch whenever a poisoned plan is in the
    chunk — the fault-injection vehicle."""

    name = "poison-cost-stub"

    def __init__(self, scale: float = 1.0):
        super().__init__(scale)
        self.poisoned: set[float] = set()

    def predict_encoded(self, encoded):
        costs = list(encoded)
        if any(cost in self.poisoned for cost in costs):
            raise ModelError("injected mid-batch estimator failure")
        return super().predict_encoded(costs)


class GatedPoisonStub(PoisonStub):
    """A poison stub whose every call blocks until the test releases
    it — holds a failing batch in the service while the test acts."""

    name = "gated-poison-cost-stub"

    def __init__(self, scale: float = 1.0):
        super().__init__(scale)
        self.entered = threading.Event()
        self.release = threading.Event()

    def predict_encoded(self, encoded):
        self.entered.set()
        if not self.release.wait(WAIT):  # pragma: no cover - deadlock guard
            raise ModelError("GatedPoisonStub never released")
        return super().predict_encoded(encoded)


class ShortAnswerStub(LinearCostStub):
    """A stub that drops the last ``missing`` predictions of a chunk —
    an estimator whose answer does not line up with the batch."""

    name = "short-answer-cost-stub"

    def __init__(self, scale: float = 1.0, missing: int = 1):
        super().__init__(scale)
        self.missing = missing

    def predict_encoded(self, encoded):
        answers = super().predict_encoded(encoded)
        return answers[:len(answers) - self.missing]


class WideAnswerStub(GatedStub):
    """A gated stub that answers two values per request, which the
    server cannot turn into one runtime: the error surfaces on the
    batcher thread *outside* the estimator call."""

    name = "wide-answer-cost-stub"

    def predict_encoded(self, encoded):
        answers = super().predict_encoded(encoded)
        return np.stack([answers, answers], axis=1)
