"""One contract for the four learned core models.

``ZeroShotCostModel``, ``FlatVectorCostModel``, ``MSCNCostModel`` and
``E2ECostModel`` share :class:`repro.models.trainer.CoreCostModel`;
whatever that base promises is asserted here once, parametrized over
the four, instead of per model.
"""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.featurize import (
    CardinalitySource,
    E2EFeaturizer,
    MSCNFeaturizer,
    ZeroShotFeaturizer,
)
from repro.models import (
    E2ECostModel,
    FlatVectorCostModel,
    MSCNCostModel,
    TrainerConfig,
    ZeroShotConfig,
    ZeroShotCostModel,
)
from repro.models.trainer import train_model
from repro.nn import MLP, Module, Tensor
from repro.nn import tensor as T
from repro.nn.serialize import save_state
from repro.workload import WorkloadRunner, make_benchmark_workload

CORE_MODELS = ("zero-shot", "flat", "mscn", "e2e")


@pytest.fixture(scope="module")
def records(tiny_imdb):
    return WorkloadRunner(tiny_imdb, seed=5).run(
        make_benchmark_workload(tiny_imdb, "scale", 24, seed=5))


@pytest.fixture(scope="module")
def cases(tiny_imdb, records):
    """``name -> (factory, labelled samples, unlabelled samples)``."""
    graphs = ZeroShotFeaturizer(CardinalitySource.ESTIMATED)
    mscn = MSCNFeaturizer(tiny_imdb).fit([r.query for r in records])
    e2e = E2EFeaturizer(tiny_imdb).fit([r.plan for r in records])

    def both(featurize):
        return ([featurize(r, r.runtime_seconds) for r in records],
                [featurize(r, None) for r in records])

    graph_samples = both(lambda r, label: graphs.featurize(
        r.plan, tiny_imdb, label))
    return {
        "zero-shot": (lambda: ZeroShotCostModel(
            ZeroShotConfig(hidden_dim=16, seed=0)), *graph_samples),
        "flat": (lambda: FlatVectorCostModel(hidden=(16,), seed=0),
                 *graph_samples),
        "mscn": (lambda: MSCNCostModel(mscn),
                 *both(lambda r, label: mscn.featurize(r.query, label))),
        "e2e": (lambda: E2ECostModel(e2e),
                *both(lambda r, label: e2e.featurize(r.plan, label))),
    }


@pytest.fixture(scope="module")
def fitted(cases):
    trainer = TrainerConfig(epochs=3, batch_size=8, seed=0)
    models = {}
    for name, (factory, labelled, _) in cases.items():
        models[name] = factory()
        models[name].fit(labelled, trainer)
    return models


@pytest.mark.parametrize("name", CORE_MODELS)
class TestCoreModelContract:
    def test_unfitted_use_raises_model_error(self, name, cases):
        factory, _, unlabelled = cases[name]
        model = factory()
        assert not model.is_fitted
        for predict in (model.predict_runtime, model.predict_log_runtime,
                        model.encode, model.predict_log_from_encoded):
            with pytest.raises(ModelError, match="fitted"):
                predict(unlabelled[:1])
        # The guard comes before the empty-input shortcut.
        with pytest.raises(ModelError, match="fitted"):
            model.predict_runtime([])

    def test_unusable_training_input_rejected_before_any_state_change(
            self, name, cases):
        factory, labelled, unlabelled = cases[name]
        model = factory()
        with pytest.raises(ModelError, match="at least one"):
            model.fit([])
        with pytest.raises(ModelError, match="labels"):
            model.fit(labelled[:3] + unlabelled[:1])
        assert not model.is_fitted
        assert model.history is None

    def test_fit_records_history_and_fits(self, name, fitted):
        model = fitted[name]
        assert model.is_fitted
        assert len(model.history.train_losses) == 3

    def test_empty_input_yields_empty_vector(self, name, fitted):
        assert fitted[name].predict_runtime([]).shape == (0,)
        assert fitted[name].predict_log_from_encoded([]).shape == (0,)

    def test_prediction_is_batch_size_invariant(self, name, fitted, cases):
        model, samples = fitted[name], cases[name][2][:6]
        batched = model.predict_log_runtime(samples)
        single = np.concatenate([model.predict_log_runtime([sample])
                                 for sample in samples])
        assert np.array_equal(batched, single)
        assert np.array_equal(
            model.predict_log_from_encoded(model.encode(samples)), batched)
        assert np.array_equal(model.predict_runtime(samples),
                              np.exp(batched))

    def test_restore_reproduces_predictions(self, name, fitted, cases,
                                            tmp_path):
        model, samples = fitted[name], cases[name][2][:6]
        save_state(model.net, tmp_path / "weights.npz")
        twin = cases[name][0]()
        # Calibration beyond the target statistics travels separately.
        for attribute in ("scalers", "scaler"):
            if hasattr(model, attribute):
                setattr(twin, attribute, getattr(model, attribute))
        twin.restore(tmp_path / "weights.npz", model.target_mean,
                     model.target_std)
        assert twin.is_fitted
        assert np.array_equal(twin.predict_log_runtime(samples),
                              model.predict_log_runtime(samples))


@pytest.fixture(scope="module")
def inference_models(cases, fitted, tiny_imdb, records):
    """``name -> (fitted model, unlabelled samples)``: the four core
    models plus the zero-shot variants whose forwards differ, the
    cardinality head and the system node."""
    models = {name: (fitted[name], cases[name][2]) for name in CORE_MODELS}
    trainer = TrainerConfig(epochs=1, batch_size=8, seed=0)
    variants = {
        "zero-shot-head": (
            ZeroShotConfig(hidden_dim=16, cardinality_head=True),
            ZeroShotFeaturizer(CardinalitySource.ESTIMATED)),
        "zero-shot-system": (
            ZeroShotConfig(hidden_dim=16, system_features=True),
            ZeroShotFeaturizer(CardinalitySource.ESTIMATED,
                               system_features=True)),
    }
    for name, (config, featurizer) in variants.items():
        model = ZeroShotCostModel(config)
        model.fit([featurizer.featurize(r.plan, tiny_imdb, r.runtime_seconds,
                                        r.operator_cardinalities)
                   for r in records], trainer)
        models[name] = (model, [featurizer.featurize(r.plan, tiny_imdb)
                                for r in records])
    return models


@pytest.mark.parametrize("name", CORE_MODELS + ("zero-shot-head",
                                                "zero-shot-system"))
def test_inference_forward_builds_no_tensor(name, inference_models,
                                            monkeypatch):
    """Off the tape every op returns its raw array, so a prediction
    builds no ``Tensor`` and walks no module tree: neither
    ``Tensor.__init__`` nor ``Module.eval`` runs inside
    ``predict_log_from_encoded`` or the cardinality head's
    ``predict_cardinalities_from_encoded``."""
    model, samples = inference_models[name]
    encoded = model.encode(samples[:6])
    calls = []
    for cls, method in ((Tensor, "__init__"), (Module, "eval")):
        def spy(*args, _original=getattr(cls, method),
                _label=f"{cls.__name__}.{method}", **kwargs):
            calls.append(_label)
            return _original(*args, **kwargs)

        monkeypatch.setattr(cls, method, spy)
    predictions = model.predict_log_from_encoded(encoded)
    if name == "zero-shot-head":
        cardinalities = model.predict_cardinalities_from_encoded(encoded)
        assert len(cardinalities) == len(encoded)
    assert calls == []
    assert predictions.shape == (len(encoded),)
    assert np.isfinite(predictions).all()
    # The spies see what they guard.
    Tensor(predictions)
    model.net.eval()
    assert calls[:2] == ["Tensor.__init__", "Module.eval"]


def _mlp_keys(name, *layers):
    """The ``state_dict`` keys of one ``MLP``: its ``Linear`` layers sit
    at the even positions of ``body``, where the activations between
    them once were modules of their own."""
    prefix = f"{name}." if name else ""
    return [f"{prefix}body.layer{layer}.{parameter}"
            for layer in layers for parameter in ("weight", "bias")]


_ZERO_SHOT_KEYS = [
    key for node_type in ("plan_op", "table", "column", "predicate",
                          "aggregate", "index")
    for part in ("encode", "combine")
    for key in _mlp_keys(f"{part}_{node_type}", 0, 2)
] + _mlp_keys("readout", 0, 2, 4)

#: Every learned model's parameter names, in order: what a saved
#: ``weights.npz`` is keyed by, so a layer refactor that renames one
#: cannot load the models saved before it.
STATE_DICT_KEYS = {
    "zero-shot": _ZERO_SHOT_KEYS,
    "zero-shot-head": _ZERO_SHOT_KEYS + _mlp_keys("card_readout", 0, 2, 4),
    "zero-shot-system": _ZERO_SHOT_KEYS + _mlp_keys("encode_system", 0, 2)
    + _mlp_keys("combine_system", 0, 2),
    "e2e": (_mlp_keys("encoder", 0, 2) + _mlp_keys("combine", 0, 2)
            + _mlp_keys("readout", 0, 2)),
    "mscn": (_mlp_keys("table_mlp", 0, 2) + _mlp_keys("join_mlp", 0, 2)
             + _mlp_keys("predicate_mlp", 0, 2) + _mlp_keys("output", 0, 2)),
    "flat": _mlp_keys("", 0, 2),
}


@pytest.mark.parametrize("name", sorted(STATE_DICT_KEYS))
def test_state_dict_keys_are_pinned(name, inference_models):
    model, _ = inference_models[name]
    assert list(model.net.state_dict()) == STATE_DICT_KEYS[name]


def test_validation_runs_off_the_tape():
    """Nobody walks a tape of the validation batch, so ``train_model``
    builds none: the forward returns a raw ``ndarray`` for the (one,
    largest) validation batch and a taped ``Tensor`` for every training
    batch."""
    rng = np.random.default_rng(0)
    samples = [(rng.normal(size=3), float(i)) for i in range(20)]
    net = MLP(3, [4], 1, rng)
    seen = []

    def forward(batch):
        out = T.reshape(net(np.stack([x for x, _ in batch])), -1)
        seen.append((len(batch), type(out)))
        return out

    history = train_model(
        net, samples, forward, lambda batch: np.array([y for _, y in batch]),
        TrainerConfig(epochs=2, batch_size=4, validation_fraction=0.3,
                      seed=0), collate=list)
    assert len(history.validation_losses) == 2
    validation = [kind for size, kind in seen if size == 6]
    training = [kind for size, kind in seen if size != 6]
    assert validation == [np.ndarray, np.ndarray]
    assert training == [Tensor] * 8
    # Recording is back on once the fit returns.
    assert net(np.zeros((1, 3))).requires_grad


@pytest.mark.parametrize("field, value", [
    ("epochs", 0), ("batch_size", -1), ("learning_rate", 0.0),
    ("learning_rate", -1e-3), ("weight_decay", -1e-5), ("clip_norm", 0.0),
    ("validation_fraction", 1.0), ("validation_fraction", -0.1),
    ("early_stopping_patience", 0),
    # NaN compares false with everything, so ``<= 0`` let it through: a
    # NaN learning rate trained nothing and kept no epoch, silently.
    ("learning_rate", float("nan")), ("learning_rate", float("inf")),
    ("weight_decay", float("nan")), ("clip_norm", float("nan")),
])
def test_bad_trainer_config_fails_at_construction(field, value):
    """Eagerly, not minutes into a fit (or, accepted silently, never)."""
    with pytest.raises(ModelError, match=field):
        TrainerConfig(**{field: value})
