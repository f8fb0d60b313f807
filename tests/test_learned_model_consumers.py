"""Every consumer of a learned model takes one handle: a fitted
``CostEstimator`` over estimated cardinalities.

Plan selection, learned cardinalities, the index advisor's what-if
estimates and the hardware advisor all price plans that never ran.
Each refuses, when it is built, an estimator that featurizes with
actual cardinalities (a plan that never ran has none) and a raw core
model, whose error names the fix.  Before the check was shared, three
of the four took the actual-cardinality estimator and failed later or
priced nothing, and all four wrapped a raw model silently.
"""

import pytest

from repro.errors import ModelError
from repro.featurize import CardinalitySource
from repro.models import TrainerConfig, ZeroShotConfig, ZeroShotEstimator
from repro.optimizer import LearnedCardinalityEstimator
from repro.optimizer.learned_planner import ZeroShotPlanSelector
from repro.tuning import HardwareAdvisor, IndexAdvisor
from repro.workload import WorkloadRunner, WorkloadSpec, generate_workload

CONSUMERS = {
    "plan-selector": ZeroShotPlanSelector,
    "learned-cardinalities": LearnedCardinalityEstimator,
    "index-advisor": IndexAdvisor,
    "hardware-advisor": HardwareAdvisor,
}

#: ``id: (estimator -> what the consumer is handed, expected error)``.
HANDLES = {
    "actual-source": (lambda estimator: estimator,
                      "estimated cardinalities"),
    "raw-model": (lambda estimator: estimator.model,
                  r"ZeroShotEstimator\(model=\.\.\.\)"),
}


@pytest.fixture(scope="module")
def actual_estimator(tiny_imdb):
    """A fitted model every consumer could take but for its source: it
    carries the cardinality head and the machine node."""
    records = WorkloadRunner(tiny_imdb, seed=3).run(generate_workload(
        tiny_imdb, WorkloadSpec(num_queries=12, seed=4)))
    estimator = ZeroShotEstimator(
        ZeroShotConfig(hidden_dim=16, cardinality_head=True,
                       system_features=True),
        source=CardinalitySource.ACTUAL)
    return estimator.fit(records, tiny_imdb, TrainerConfig(
        epochs=1, batch_size=16, early_stopping_patience=1))


@pytest.mark.parametrize("consumer", CONSUMERS.values(),
                         ids=CONSUMERS.keys())
@pytest.mark.parametrize("handle, message", HANDLES.values(),
                         ids=HANDLES.keys())
def test_consumer_refuses_at_construction(consumer, handle, message,
                                          actual_estimator, tiny_imdb):
    with pytest.raises(ModelError, match=message):
        consumer(tiny_imdb, handle(actual_estimator))
