"""The hardware what-if advisor: "should I buy faster disks?"."""

import pytest

from repro.db import SyntheticDatabaseSpec, generate_database
from repro.errors import ExecutionError, ModelError
from repro.models import TrainerConfig, ZeroShotConfig, ZeroShotEstimator
from repro.runtime import available_system_configs
from repro.tuning import HardwareAdvisor

from tests.models.conftest import _simple_queries
from tests.models.test_hardware_transfer import build_machine_graphs

pytestmark = pytest.mark.hardware


@pytest.fixture(scope="module")
def hardware_dbs():
    return [
        generate_database(SyntheticDatabaseSpec(
            name=f"hw{i}", seed=300 + i, num_tables=3,
            min_rows=500, max_rows=3_000,
        ))
        for i in range(3)
    ]


@pytest.fixture(scope="module")
def aware_estimator(hardware_dbs):
    estimator = ZeroShotEstimator(ZeroShotConfig(hidden_dim=32, seed=11,
                                                 system_features=True))
    graphs = build_machine_graphs(hardware_dbs, 40, system_features=True)
    return estimator.fit_graphs(graphs, TrainerConfig(
        epochs=25, batch_size=32, seed=0, early_stopping_patience=25))


@pytest.fixture(scope="module")
def workload(hardware_dbs):
    return _simple_queries(hardware_dbs[0], 6, seed=555)


class TestHardwareAdvisor:
    def test_ranks_every_registered_machine(self, hardware_dbs,
                                            aware_estimator, workload):
        advisor = HardwareAdvisor(hardware_dbs[0], aware_estimator,
                                  baseline="default")
        recommendation = advisor.recommend(workload)
        assert recommendation.baseline_name == "default"
        assert recommendation.baseline_seconds > 0
        names = {option.name for option in recommendation.options}
        assert names == set(available_system_configs()) - {"default"}
        seconds = [option.predicted_seconds
                   for option in recommendation.options]
        assert seconds == sorted(seconds)  # fastest first
        assert all(value > 0 for value in seconds)
        # A hardware-aware model prices machines apart.
        assert len(set(seconds)) > 1
        assert recommendation.best.name == recommendation.options[0].name

    def test_baseline_is_any_named_machine(self, hardware_dbs,
                                           aware_estimator, workload):
        advisor = HardwareAdvisor(hardware_dbs[0], aware_estimator,
                                  baseline="slow-disk")
        recommendation = advisor.recommend(workload)
        assert {o.name for o in recommendation.options} == \
            set(available_system_configs()) - {"slow-disk"}
        assert all(o.predicted_speedup > 0 for o in recommendation.options)
        with pytest.raises(ExecutionError, match="unknown system config"):
            HardwareAdvisor(hardware_dbs[0], aware_estimator,
                            baseline="no-such-machine")

    def test_blind_model_rejected(self, hardware_dbs):
        blind = ZeroShotEstimator(ZeroShotConfig(hidden_dim=32))
        graphs = build_machine_graphs(hardware_dbs, 10,
                                      system_features=False)
        blind.fit_graphs(graphs, TrainerConfig(
            epochs=2, batch_size=32, seed=0, early_stopping_patience=2))
        with pytest.raises(ModelError, match="hardware-aware"):
            HardwareAdvisor(hardware_dbs[0], blind)

    def test_unfitted_model_rejected(self, hardware_dbs):
        estimator = ZeroShotEstimator(ZeroShotConfig(hidden_dim=32,
                                                     system_features=True))
        with pytest.raises(ModelError, match="fitted"):
            HardwareAdvisor(hardware_dbs[0], estimator)

    def test_empty_workload_rejected(self, hardware_dbs, aware_estimator):
        advisor = HardwareAdvisor(hardware_dbs[0], aware_estimator)
        with pytest.raises(ModelError, match="non-empty"):
            advisor.recommend([])
