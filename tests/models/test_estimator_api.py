"""Conformance suite for the unified ``CostEstimator`` contract.

Every estimator in ``repro.models.ESTIMATORS`` must satisfy the same surface: uniform
``ModelError`` before fit, plan/SQL/query prediction, per-plan ==
batched (batch-size-invariant inference), save/load round-trips, and —
for the workload-driven models — the out-of-vocabulary fallback.
"""

import json

import numpy as np
import pytest

from repro.errors import ModelError
from repro.featurize import CardinalitySource, ZeroShotFeaturizer
from repro.models import (
    ESTIMATORS,
    CostEstimator,
    TrainerConfig,
    ZeroShotConfig,
    ZeroShotCostModel,
    ZeroShotEstimator,
    get_estimator,
    load_estimator,
    peek_manifest,
)
from repro.sql import parse_query
from repro.workload import WorkloadRunner, make_benchmark_workload

NAMES = ("zero-shot", "flat", "mscn", "e2e", "scaled-optimizer-cost")
#: The ``fitted`` key of the zero-shot estimator built with
#: ``ZeroShotConfig(cardinality_head=True)``: a variant, not a name.
HEAD = "zero-shot+head"
ALL_NAMES = NAMES + (HEAD,)
WORKLOAD_DRIVEN = ("mscn", "e2e")

#: ``(manifest file, its "config" entry)`` as the tree before
#: ``dropout`` / ``activation`` stopped being configurable wrote them
#: for the default configs the ``fitted`` fixture trains.
PARENT_CONFIGS = {
    "zero-shot": ("model.json", """{
        "hidden_dim": 64, "encoder_hidden": [64], "combine_hidden": [64],
        "readout_hidden": [64, 32], "dropout": 0.0,
        "activation": "leaky_relu", "seed": 0, "cardinality_head": false,
        "cardinality_loss_weight": 1.0,
        "cardinality_correction_margin": 0.1, "system_features": false}"""),
    "mscn": ("estimator.json", """{
        "hidden_dim": 64, "set_hidden": [64], "final_hidden": [64],
        "activation": "relu", "seed": 0}"""),
    "e2e": ("estimator.json", """{
        "hidden_dim": 64, "encoder_hidden": [64], "combine_hidden": [64],
        "readout_hidden": [64], "activation": "leaky_relu", "seed": 0}"""),
}


@pytest.fixture(scope="module")
def executed(tiny_imdb):
    runner = WorkloadRunner(tiny_imdb, seed=5)
    return runner.run(make_benchmark_workload(tiny_imdb, "scale", 30, seed=5))


def build(name):
    """An unfitted estimator of ``ALL_NAMES``."""
    if name == HEAD:
        return ZeroShotEstimator(config=ZeroShotConfig(cardinality_head=True))
    return get_estimator(name)


def registered_name(name):
    """The ``ESTIMATORS`` name an estimator of ``ALL_NAMES`` saves under."""
    return ZeroShotEstimator.name if name == HEAD else name


@pytest.fixture(scope="module")
def fitted(tiny_imdb, executed):
    trainer = TrainerConfig(epochs=6, batch_size=16,
                            early_stopping_patience=6, seed=0)
    return {name: build(name).fit(executed, tiny_imdb, trainer)
            for name in ALL_NAMES}


class TestNames:
    def test_every_estimator_is_named(self):
        assert sorted(ESTIMATORS) == sorted(NAMES)
        for name, estimator in ESTIMATORS.items():
            assert estimator.name == name

    def test_unknown_name_rejected(self):
        with pytest.raises(ModelError, match="unknown estimator") as excinfo:
            get_estimator("no-such-model")
        for name in ESTIMATORS:
            assert name in str(excinfo.value)


class TestContract:
    # Parametrized over the table itself: an estimator added to it is
    # automatically held to the same contract, and so is the head variant.
    @pytest.mark.parametrize("name", sorted(ESTIMATORS) + [HEAD])
    def test_unfitted_predict_raises_uniform_model_error(self, name,
                                                         tiny_imdb,
                                                         executed):
        estimator = build(name)
        assert isinstance(estimator, CostEstimator)
        assert estimator.name == registered_name(name)
        assert not estimator.is_fitted
        plans = [executed[0].plan]
        with pytest.raises(ModelError, match="before fit"):
            estimator.predict_runtime(plans, tiny_imdb)
        with pytest.raises(ModelError, match="before fit"):
            estimator.predict_log_runtime(plans, tiny_imdb)
        with pytest.raises(ModelError):
            estimator.save("/nonexistent/never-written")

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_fit_then_predict(self, name, fitted, tiny_imdb, executed):
        estimator = fitted[name]
        assert estimator.is_fitted
        plans = [r.plan for r in executed[:8]]
        runtimes = estimator.predict_runtime(plans, tiny_imdb)
        assert runtimes.shape == (8,)
        assert (runtimes > 0).all()
        logs = estimator.predict_log_runtime(plans, tiny_imdb)
        np.testing.assert_array_equal(np.exp(logs), runtimes)

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_empty_batch(self, name, fitted, tiny_imdb):
        assert fitted[name].predict_runtime([], tiny_imdb).shape == (0,)

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_sql_and_query_inputs(self, name, fitted, tiny_imdb):
        estimator = fitted[name]
        sql = ("SELECT COUNT(*) FROM title t "
               "WHERE t.production_year > 2000")
        from_sql = estimator.predict_runtime([sql], tiny_imdb)
        from_query = estimator.predict_runtime([parse_query(sql)], tiny_imdb)
        np.testing.assert_array_equal(from_sql, from_query)
        with pytest.raises(ModelError, match="requires a database"):
            estimator.predict_runtime([sql])

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_per_plan_equals_batched(self, name, fitted, tiny_imdb,
                                     executed):
        """Batch-size-invariant inference: the property repro.serve's
        bit-identity guarantee is built on."""
        estimator = fitted[name]
        plans = [r.plan for r in executed[:10]]
        batched = estimator.predict_runtime(plans, tiny_imdb)
        per_plan = np.array([estimator.predict_runtime([p], tiny_imdb)[0]
                             for p in plans])
        np.testing.assert_array_equal(batched, per_plan)

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_save_load_round_trip(self, name, fitted, tiny_imdb, executed,
                                  tmp_path):
        estimator = fitted[name]
        plans = [r.plan for r in executed[:6]]
        expected = estimator.predict_runtime(plans, tiny_imdb)
        directory = tmp_path / name
        estimator.save(directory)
        loaded = load_estimator(directory, tiny_imdb)
        assert type(loaded) is type(estimator)
        assert loaded.is_fitted
        np.testing.assert_array_equal(
            loaded.predict_runtime(plans, tiny_imdb), expected)

    @staticmethod
    def _save_with_config(estimator, directory, name, **overrides):
        """Save, then give the manifest the parent tree's config."""
        estimator.save(directory)
        manifest, config = PARENT_CONFIGS[name]
        payload = json.loads((directory / manifest).read_text())
        payload["config"] = {**json.loads(config), **overrides}
        (directory / manifest).write_text(json.dumps(payload))

    @pytest.mark.parametrize("name", sorted(PARENT_CONFIGS))
    def test_model_saved_before_the_options_went_still_loads(
            self, name, fitted, tiny_imdb, executed, tmp_path):
        plans = [r.plan for r in executed[:6]]
        self._save_with_config(fitted[name], tmp_path, name)
        loaded = load_estimator(tmp_path, tiny_imdb)
        np.testing.assert_array_equal(
            loaded.predict_runtime(plans, tiny_imdb),
            fitted[name].predict_runtime(plans, tiny_imdb))

    @pytest.mark.parametrize("name, key, value", [
        ("zero-shot", "dropout", 0.3), ("zero-shot", "activation", "tanh"),
        ("mscn", "activation", "leaky_relu"), ("e2e", "activation", "relu"),
    ])
    def test_removed_option_at_an_unsupported_value_is_refused(
            self, name, key, value, fitted, tiny_imdb, tmp_path):
        self._save_with_config(fitted[name], tmp_path, name, **{key: value})
        with pytest.raises(ModelError, match=key):
            load_estimator(tmp_path, tiny_imdb)

    def test_load_estimator_on_garbage(self, tmp_path):
        with pytest.raises(ModelError, match="saved estimator"):
            load_estimator(tmp_path)

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_peek_manifest_names_saved_estimator(self, name, fitted,
                                                 tmp_path):
        """The serving tier's pre-swap hook: the manifest identifies the
        saved estimator without touching any weights.  A head model
        saves as a zero-shot estimator."""
        directory = tmp_path / name
        fitted[name].save(directory)
        payload = peek_manifest(directory)
        assert payload["name"] == registered_name(name)

    def test_peek_manifest_rejects_garbage_and_unloadable(
            self, fitted, tmp_path, monkeypatch):
        with pytest.raises(ModelError, match="saved estimator"):
            peek_manifest(tmp_path)  # no manifest at all
        # A manifest naming an estimator no class is known for is
        # rejected before load_estimator would fail on it.
        name = ALL_NAMES[0]
        directory = tmp_path / "orphan"
        fitted[name].save(directory)
        monkeypatch.delitem(ESTIMATORS, name)
        with pytest.raises(ModelError, match="no estimator class"):
            peek_manifest(directory)

    @pytest.mark.parametrize("payload", [{}, {"name": None}, {"name": 3},
                                         {"name": ["zero-shot"]}],
                             ids=["missing", "null", "number", "list"])
    def test_a_manifest_naming_no_estimator_is_refused(self, payload,
                                                       tmp_path):
        (tmp_path / "estimator.json").write_text(json.dumps(payload))
        for read in (peek_manifest, load_estimator):
            with pytest.raises(ModelError, match="no estimator class"):
                read(tmp_path)

    @pytest.mark.parametrize("name", NAMES)
    def test_class_load_refuses_another_estimators_directory(
            self, name, fitted, tiny_imdb, tmp_path):
        other = NAMES[(NAMES.index(name) + 1) % len(NAMES)]
        fitted[other].save(tmp_path)
        with pytest.raises(ModelError, match=f"expected '{name}'"):
            ESTIMATORS[name].load(tmp_path, tiny_imdb)

    @pytest.mark.parametrize("text", ['{"name": "zero-sh', '["zero-shot"]'],
                             ids=["truncated", "not-an-object"])
    def test_corrupt_manifest_raises_model_error_naming_the_path(
            self, text, tmp_path):
        manifest = tmp_path / "estimator.json"
        manifest.write_text(text)
        for read in (peek_manifest, load_estimator):
            with pytest.raises(ModelError) as excinfo:
                read(tmp_path)
            assert str(manifest) in str(excinfo.value)


class TestWorkloadDrivenSpecifics:
    @pytest.mark.parametrize("name", WORKLOAD_DRIVEN)
    def test_out_of_vocabulary_fallback(self, name, fitted, tiny_imdb,
                                        executed):
        """Plans outside the one-hot vocabulary are priced at the
        training-median runtime instead of erroring out."""
        estimator = fitted[name]
        # The training workload ("scale") never filters on title.id, so
        # the predicate column is outside both one-hot vocabularies.
        runner = WorkloadRunner(tiny_imdb, seed=99)
        record = runner.run_query(parse_query(
            "SELECT COUNT(*) FROM title t WHERE t.id < 50"))
        prediction = estimator.predict_runtime([record.plan], tiny_imdb)
        fallback = np.exp(estimator.fallback_log_runtime)
        np.testing.assert_allclose(prediction, [fallback])

    @pytest.mark.parametrize("name", WORKLOAD_DRIVEN)
    def test_multi_database_training_rejected(self, name, executed,
                                              small_synthetic_db):
        runner = WorkloadRunner(small_synthetic_db, seed=1)
        from repro.workload import WorkloadSpec, generate_workload
        other = runner.run(generate_workload(
            small_synthetic_db, WorkloadSpec(num_queries=3, seed=1)))
        databases = {executed[0].database_name: None,
                     small_synthetic_db.name: small_synthetic_db}
        with pytest.raises(ModelError, match="exactly one"):
            get_estimator(name).fit(list(executed[:3]) + other, databases)

    @pytest.mark.parametrize("name", WORKLOAD_DRIVEN)
    def test_wrong_database_at_predict_rejected(self, name, fitted,
                                                small_synthetic_db,
                                                executed):
        with pytest.raises(ModelError, match="trained on"):
            fitted[name].predict_runtime([executed[0].plan],
                                         small_synthetic_db)

    @pytest.mark.parametrize("name", WORKLOAD_DRIVEN)
    def test_load_requires_database(self, name, fitted, tmp_path):
        directory = tmp_path / name
        fitted[name].save(directory)
        with pytest.raises(ModelError, match="needs the database"):
            load_estimator(directory)


class TestCardinalityHead:
    """The cardinality head of ``ZeroShotConfig(cardinality_head=True)``
    on the one zero-shot estimator — the generic contract above already
    covers its runtime surface via ``ALL_NAMES``."""

    TRAINER = TrainerConfig(epochs=2, batch_size=8, validation_fraction=0.0,
                            early_stopping_patience=2)

    def test_flag_built_head_trains_and_predicts_cardinalities(
            self, tiny_imdb, executed):
        """The config flag alone makes a head model: ``fit`` attaches
        the records' per-operator labels."""
        estimator = ZeroShotEstimator(config=ZeroShotConfig(
            hidden_dim=16, cardinality_head=True))
        estimator.fit(executed, tiny_imdb, self.TRAINER)
        plans = [r.plan for r in executed[:4]]
        predictions = estimator.predict_cardinalities(plans, tiny_imdb)
        assert [cards.shape for cards in predictions] == \
            [(plan.num_nodes,) for plan in plans]
        assert all((cards >= 0).all() for cards in predictions)

    def test_wrapped_head_model_fine_tunes_and_round_trips(
            self, tiny_imdb, executed, tmp_path):
        """A head model wrapped as ``ZeroShotEstimator(model=...)`` — as
        the experiment context and the hardware advisor wrap theirs —
        fine-tunes with labels, and saves and loads with its head."""
        featurizer = ZeroShotFeaturizer(CardinalitySource.ESTIMATED)
        model = ZeroShotCostModel(ZeroShotConfig(hidden_dim=16,
                                                 cardinality_head=True))
        model.fit([featurizer.featurize(r.plan, tiny_imdb, r.runtime_seconds,
                                        r.operator_cardinalities)
                   for r in executed], self.TRAINER)
        tuned = ZeroShotEstimator(model=model).fine_tune(
            executed[:8], tiny_imdb, self.TRAINER)
        assert tuned.model.history is not None
        plans = [r.plan for r in executed[:4]]
        expected = tuned.predict_cardinalities(plans, tiny_imdb)
        tuned.save(tmp_path)
        loaded = load_estimator(tmp_path, tiny_imdb)
        for restored, cards in zip(
                loaded.predict_cardinalities(plans, tiny_imdb), expected):
            np.testing.assert_array_equal(restored, cards)

    def test_unfitted_cardinality_predict_raises_uniform_model_error(
            self, tiny_imdb, executed):
        estimator = build(HEAD)
        with pytest.raises(ModelError, match="before fit"):
            estimator.predict_cardinalities([executed[0].plan], tiny_imdb)

    def test_predicts_per_operator_arrays(self, fitted, tiny_imdb,
                                          executed):
        estimator = fitted[HEAD]
        plans = [r.plan for r in executed[:6]]
        predictions = estimator.predict_cardinalities(plans, tiny_imdb)
        assert len(predictions) == len(plans)
        for plan, cards in zip(plans, predictions):
            assert cards.shape == (plan.num_nodes,)
            assert (cards >= 0).all()
        assert estimator.predict_cardinalities([], tiny_imdb) == []

    def test_per_plan_equals_batched_cardinalities(self, fitted, tiny_imdb,
                                                   executed):
        estimator = fitted[HEAD]
        plans = [r.plan for r in executed[:8]]
        batched = estimator.predict_cardinalities(plans, tiny_imdb)
        for plan, expected in zip(plans, batched):
            single = estimator.predict_cardinalities([plan], tiny_imdb)[0]
            np.testing.assert_array_equal(single, expected)

    def test_save_load_preserves_cardinality_head(self, fitted, tiny_imdb,
                                                  executed, tmp_path):
        estimator = fitted[HEAD]
        plans = [r.plan for r in executed[:4]]
        expected = estimator.predict_cardinalities(plans, tiny_imdb)
        directory = tmp_path / "card"
        estimator.save(directory)
        loaded = load_estimator(directory, tiny_imdb)
        assert type(loaded) is type(estimator)
        restored = loaded.predict_cardinalities(plans, tiny_imdb)
        for a, b in zip(restored, expected):
            np.testing.assert_array_equal(a, b)

    def test_sql_and_query_inputs_predict_the_same_cardinalities(
            self, fitted, tiny_imdb):
        """``predict_cardinalities`` resolves SQL and parsed queries
        like ``predict_runtime``, and needs the database to plan them."""
        estimator = fitted[HEAD]
        sql = ("SELECT COUNT(*) FROM title t, movie_info_idx mii "
               "WHERE t.id = mii.movie_id AND t.production_year > 2000")
        [from_sql] = estimator.predict_cardinalities([sql], tiny_imdb)
        [from_query] = estimator.predict_cardinalities([parse_query(sql)],
                                                       tiny_imdb)
        np.testing.assert_array_equal(from_sql, from_query)
        with pytest.raises(ModelError, match="requires a database"):
            estimator.predict_cardinalities([sql])

    def test_headless_training_reads_no_cardinality_labels(
            self, tiny_imdb, executed, monkeypatch):
        """The flag decides: a model without the head trains and
        fine-tunes on runtime labels alone, and never asks a record
        for its per-operator cardinalities."""
        def unreachable(record):
            raise AssertionError("a headless model read cardinality labels")

        monkeypatch.setattr("repro.models.estimators.record_cardinalities",
                            unreachable)
        estimator = ZeroShotEstimator(config=ZeroShotConfig(hidden_dim=16))
        estimator.fit(executed, tiny_imdb, self.TRAINER)
        tuned = estimator.fine_tune(executed[:8], tiny_imdb, self.TRAINER)
        assert tuned.is_fitted and not tuned.model.config.cardinality_head

    def test_runtime_only_estimator_has_no_cardinality_surface(
            self, fitted, tiny_imdb, executed):
        """The plain zero-shot model must refuse cardinality prediction
        instead of silently returning something, empty batch included."""
        base = fitted["zero-shot"]
        for plans in ([executed[0].plan], []):
            with pytest.raises(ModelError, match="cardinality head"):
                base.predict_cardinalities(plans, tiny_imdb)

    def test_fine_tune_keeps_cardinality_surface(self, fitted, tiny_imdb,
                                                 executed):
        """Regression: fine_tune used to return a runtime-only
        estimator (dropping predict_cardinalities) and to update the
        shared trunk with a runtime-only loss (decalibrating the frozen
        card readout)."""
        base = fitted[HEAD]
        tuned = base.fine_tune(executed[:8], tiny_imdb, self.TRAINER)
        assert tuned.model.config.cardinality_head
        assert tuned.model.history is not None  # multi-task training ran
        cards = tuned.predict_cardinalities([executed[0].plan], tiny_imdb)
        assert cards[0].shape == (executed[0].plan.num_nodes,)

    def test_fine_tune_requires_cardinality_labels(self, fitted, tiny_imdb,
                                                   executed):
        """fewshot.fine_tune refuses a runtime-only update of a
        multi-task model instead of silently decalibrating it."""
        from repro.models.fewshot import fine_tune
        base = fitted[HEAD]
        runtime_only = [
            base.featurizer.featurize(r.plan, tiny_imdb, r.runtime_seconds)
            for r in executed[:4]]
        with pytest.raises(ModelError, match="cardinality labels"):
            fine_tune(base.model, runtime_only)

    def test_failed_multi_task_fit_leaves_model_unfitted(self, tiny_imdb,
                                                         executed):
        """Regression: a rejected multi-task fit (missing card labels)
        must not leave scalers assigned (is_fitted True on an untrained
        net)."""
        estimator = ZeroShotEstimator(
            config=ZeroShotConfig(hidden_dim=16, cardinality_head=True))
        runtime_only = estimator.featurizer.featurize(
            executed[0].plan, tiny_imdb, executed[0].runtime_seconds)
        with pytest.raises(ModelError, match="cardinality labels"):
            estimator.model.fit([runtime_only])
        assert not estimator.model.is_fitted
        with pytest.raises(ModelError, match="before fit"):
            estimator.predict_runtime([executed[0].plan], tiny_imdb)


class TestZeroShotEstimator:
    def test_fine_tune_returns_new_fitted_estimator(self, fitted,
                                                    tiny_imdb, executed):
        base = fitted["zero-shot"]
        before = base.predict_runtime([executed[0].plan], tiny_imdb)
        tuned = base.fine_tune(executed[:10], tiny_imdb, TrainerConfig(
            epochs=2, batch_size=8, validation_fraction=0.0,
            early_stopping_patience=2))
        assert tuned is not base
        assert tuned.is_fitted
        # The original model is untouched by fine-tuning.
        np.testing.assert_array_equal(
            base.predict_runtime([executed[0].plan], tiny_imdb), before)

    def test_constructor_wraps_trained_model(self, fitted, tiny_imdb,
                                             executed):
        base = fitted["zero-shot"]
        wrapped = ZeroShotEstimator(model=base.model, source=base.source)
        plans = [r.plan for r in executed[:5]]
        np.testing.assert_array_equal(
            wrapped.predict_runtime(plans, tiny_imdb),
            base.predict_runtime(plans, tiny_imdb))

