"""Hardware-aware zero-shot models: rng-stream preservation, eager
validation, machine-sensitive predictions, estimator threading."""

import numpy as np
import pytest

from repro.db import SyntheticDatabaseSpec, generate_database
from repro.engine import execute_plan
from repro.errors import FeaturizationError, ModelError
from repro.featurize import CardinalitySource, ZeroShotFeaturizer
from repro.models import (
    TrainerConfig,
    ZeroShotConfig,
    ZeroShotCostModel,
    ZeroShotEstimator,
    fine_tune,
)
from repro.optimizer import plan_query
from repro.runtime import RuntimeSimulator, SystemParameters
from repro.sql import parse_query

from tests.models.conftest import _simple_queries

pytestmark = pytest.mark.hardware

MACHINES = {
    "default": SystemParameters(),
    "faster-cpu": SystemParameters.faster_cpu(),
    "slow-disk": SystemParameters.slow_disk(),
}


@pytest.fixture(scope="module")
def hardware_dbs():
    return [
        generate_database(SyntheticDatabaseSpec(
            name=f"hw{i}", seed=300 + i, num_tables=3,
            min_rows=500, max_rows=3_000,
        ))
        for i in range(3)
    ]


def build_machine_graphs(databases, queries_per_db, system_features,
                         seed=0):
    """Each database's workload executes on its own machine; graphs are
    labelled with that machine's runtimes (and carry its system node
    when ``system_features`` is on)."""
    featurizer = ZeroShotFeaturizer(CardinalitySource.ACTUAL,
                                    system_features=system_features)
    machines = list(MACHINES.values())
    graphs = []
    for db_index, db in enumerate(databases):
        machine = machines[db_index % len(machines)]
        simulator = RuntimeSimulator(db, system=machine,
                                     rng=np.random.default_rng(seed + db_index))
        for query in _simple_queries(db, queries_per_db, seed + 91 * db_index):
            plan = plan_query(db, query)
            execute_plan(db, plan)
            runtime = simulator.simulate(plan)
            graphs.append(featurizer.featurize(
                plan, db, runtime.total_seconds,
                system=machine if system_features else None,
            ))
    return graphs


@pytest.fixture(scope="module")
def aware_graphs(hardware_dbs):
    return build_machine_graphs(hardware_dbs, 40, system_features=True)


@pytest.fixture(scope="module")
def blind_graphs(hardware_dbs):
    return build_machine_graphs(hardware_dbs, 40, system_features=False)


def quick_trainer(epochs=25):
    return TrainerConfig(epochs=epochs, batch_size=32, seed=0,
                         early_stopping_patience=epochs)


class TestRngStreamPreservation:
    def test_shared_modules_bit_identical_with_flag_on(self):
        """Enabling system_features must not shift any pre-existing
        module's initial weights: old configs (and the models saved
        under them) keep their exact rng stream."""
        blind = ZeroShotCostModel(ZeroShotConfig(hidden_dim=32, seed=5))
        aware = ZeroShotCostModel(ZeroShotConfig(hidden_dim=32, seed=5,
                                                 system_features=True))
        blind_state = blind.net.state_dict()
        aware_state = aware.net.state_dict()
        assert set(blind_state) < set(aware_state)  # strictly more modules
        for key, value in blind_state.items():
            np.testing.assert_array_equal(aware_state[key], value, err_msg=key)


class TestEagerValidation:
    def test_aware_model_rejects_blind_graphs(self, blind_graphs):
        model = ZeroShotCostModel(ZeroShotConfig(hidden_dim=32,
                                                 system_features=True))
        with pytest.raises(ModelError, match="no[\\s]+system node"):
            model.fit(blind_graphs, quick_trainer(epochs=1))

    def test_blind_model_rejects_aware_graphs(self, aware_graphs):
        model = ZeroShotCostModel(ZeroShotConfig(hidden_dim=32))
        with pytest.raises(ModelError, match="system_features=True"):
            model.fit(aware_graphs, quick_trainer(epochs=1))

    def test_fine_tune_enforces_the_same_system_node_contract(
            self, aware_graphs, blind_graphs):
        """Fine-tuning a hardware-aware model on graphs without a system
        node used to pass silently (the system encoder saw zero rows and
        the trunk drifted hardware-blind); it is held to fit's check."""
        aware = ZeroShotCostModel(ZeroShotConfig(hidden_dim=16,
                                                 system_features=True))
        aware.fit(aware_graphs[:20], quick_trainer(epochs=1))
        with pytest.raises(ModelError, match="no[\\s]+system node"):
            fine_tune(aware, blind_graphs[:5], quick_trainer(epochs=1))
        blind = ZeroShotCostModel(ZeroShotConfig(hidden_dim=16))
        blind.fit(blind_graphs[:20], quick_trainer(epochs=1))
        with pytest.raises(ModelError, match="system_features=True"):
            fine_tune(blind, aware_graphs[:5], quick_trainer(epochs=1))


class TestHardwareAwareTraining:
    def test_predictions_depend_on_the_machine(self, hardware_dbs,
                                               aware_graphs):
        model = ZeroShotCostModel(ZeroShotConfig(hidden_dim=32, seed=7,
                                                 system_features=True))
        model.fit(aware_graphs, quick_trainer())

        db = hardware_dbs[0]
        query = _simple_queries(db, 1, seed=999)[0]
        plan = plan_query(db, query)
        execute_plan(db, plan)
        featurizer = ZeroShotFeaturizer(CardinalitySource.ACTUAL,
                                        system_features=True)
        predictions = {
            name: float(model.predict_runtime(
                [featurizer.featurize(plan, db, system=machine)])[0])
            for name, machine in MACHINES.items()
        }
        # The same plan prices differently across machines — the whole
        # point of the system node.
        assert len({round(v, 12) for v in predictions.values()}) > 1

    def test_save_load_round_trips_the_flag(self, aware_graphs, tmp_path):
        model = ZeroShotCostModel(ZeroShotConfig(hidden_dim=32, seed=7,
                                                 system_features=True))
        model.fit(aware_graphs, quick_trainer(epochs=5))
        model.save(tmp_path / "aware")
        loaded = ZeroShotCostModel.load(tmp_path / "aware")
        assert loaded.config.system_features is True
        np.testing.assert_array_equal(
            loaded.predict_log_runtime(aware_graphs[:10]),
            model.predict_log_runtime(aware_graphs[:10]),
        )


class TestEstimatorThreading:
    def test_estimator_featurizes_for_its_machine(self, aware_graphs,
                                                  hardware_dbs, tmp_path):
        model = ZeroShotCostModel(ZeroShotConfig(hidden_dim=32, seed=7,
                                                 system_features=True))
        model.fit(aware_graphs, quick_trainer(epochs=5))
        machine = SystemParameters.slow_disk()
        estimator = ZeroShotEstimator(
            model=model, source=CardinalitySource.ACTUAL, system=machine)
        assert estimator.featurizer.system_features is True
        assert estimator.featurizer.system == machine

        db = hardware_dbs[0]
        plan = plan_query(db, _simple_queries(db, 1, seed=999)[0])
        execute_plan(db, plan)
        prediction = estimator.predict_runtime([plan], db)

        estimator.save(tmp_path / "est")
        loaded = ZeroShotEstimator.load(tmp_path / "est")
        assert loaded.system == machine
        np.testing.assert_array_equal(loaded.predict_runtime([plan], db),
                                      prediction)

    def test_blind_model_with_a_machine_rejected(self, blind_graphs):
        model = ZeroShotCostModel(ZeroShotConfig(hidden_dim=32))
        model.fit(blind_graphs, quick_trainer(epochs=1))
        with pytest.raises(FeaturizationError, match="system_features"):
            ZeroShotEstimator(model=model, source=CardinalitySource.ACTUAL,
                              system=SystemParameters())
