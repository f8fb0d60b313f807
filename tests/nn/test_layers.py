"""Layers, modules, the optimizer, data helpers, serialization."""

import numpy as np
import pytest

from repro.nn import (
    MLP,
    Adam,
    BatchIterator,
    Tensor,
    clip_grad_norm,
    load_state,
    save_state,
    train_validation_split,
)
from repro.nn import functional as F
from repro.nn import tensor as T
from repro.nn.layers import Linear
from repro.nn.module import Parameter


def rng():
    return np.random.default_rng(7)


class TestLinear:
    def test_shapes(self):
        layer = Linear(4, 3, rng())
        out = T.linear(Tensor(np.ones((5, 4))), layer.weight, layer.bias)
        assert out.shape == (5, 3)

    def test_gradients_flow(self):
        layer = Linear(4, 1, rng())
        out = T.sum(T.linear(Tensor(np.ones((2, 4))), layer.weight,
                             layer.bias))
        out.backward()
        assert layer.weight.grad is not None
        assert layer.bias.grad is not None


class TestMLP:
    def test_forward_shape(self):
        mlp = MLP(6, [8, 8], 1, rng())
        out = mlp(Tensor(np.zeros((3, 6))))
        assert out.shape == (3, 1)

    def test_empty_hidden_is_linear(self):
        mlp = MLP(6, [], 2, rng())
        assert list(mlp.state_dict()) == ["body.layer0.weight",
                                          "body.layer0.bias"]
        x = np.random.default_rng(1).normal(size=(3, 6))
        assert np.array_equal(mlp(x).data, x @ mlp.body.layer0.weight.data)

    def test_unknown_activation(self):
        with pytest.raises(ValueError):
            MLP(4, [4], 1, rng(), activation="swish999")

    def test_can_fit_linear_function(self):
        """An MLP trained with Adam should fit y = 2x + 1 closely."""
        generator = np.random.default_rng(3)
        x = generator.uniform(-1, 1, size=(256, 1))
        y = 2.0 * x + 1.0
        mlp = MLP(1, [16], 1, rng())
        optimizer = Adam(mlp.parameters(), lr=1e-2)
        def mean_squared_error():
            diff = mlp(Tensor(x)) - Tensor(y)
            return T.mean(diff * diff)

        for _ in range(300):
            optimizer.zero_grad()
            loss = mean_squared_error()
            loss.backward()
            optimizer.step()
        assert mean_squared_error().item() < 1e-3


class TestOptimizers:
    @staticmethod
    def _quadratic_param():
        return Parameter(np.array([5.0, -3.0]))

    def test_adam_converges_on_quadratic(self):
        param = self._quadratic_param()
        optimizer = Adam([param], lr=0.1)
        for _ in range(500):
            optimizer.zero_grad()
            loss = T.sum(param * param)
            loss.backward()
            optimizer.step()
        np.testing.assert_allclose(param.data, 0.0, atol=1e-3)

    def test_weight_decay_shrinks_weights(self):
        param = Parameter(np.array([1.0]))
        optimizer = Adam([param], lr=0.1, weight_decay=1.0)
        optimizer.zero_grad()
        T.sum(param * 0.0).backward()
        optimizer.step()
        assert abs(param.data[0]) < 1.0

    def test_empty_parameters_rejected(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.1)

    def test_negative_lr_rejected(self):
        with pytest.raises(ValueError):
            Adam([Parameter(np.zeros(1))], lr=-1.0)

    def test_clip_grad_norm(self):
        param = Parameter(np.zeros(4))
        param.grad = np.full(4, 10.0)
        before = clip_grad_norm([param], max_norm=1.0)
        assert before == pytest.approx(20.0)
        assert np.linalg.norm(param.grad) == pytest.approx(1.0)


class TestDataHelpers:
    def test_batch_iterator_covers_all(self):
        items = list(range(10))
        batches = list(BatchIterator(items, batch_size=3))
        assert [len(b) for b in batches] == [3, 3, 3, 1]
        assert sorted(x for b in batches for x in b) == items

    def test_batch_iterator_shuffles(self):
        items = list(range(100))
        flat = [x for b in BatchIterator(items, 10, rng=np.random.default_rng(0)) for x in b]
        assert flat != items
        assert sorted(flat) == items

    def test_batch_iterator_len(self):
        assert len(BatchIterator(list(range(10)), 4)) == 3

    def test_batch_size_validation(self):
        with pytest.raises(ValueError):
            BatchIterator([1], 0)

    def test_split_fractions(self):
        train, val = train_validation_split(list(range(100)), 0.2, np.random.default_rng(0))
        assert len(val) == 20
        assert len(train) == 80
        assert sorted(train + val) == list(range(100))

    def test_split_zero_fraction(self):
        train, val = train_validation_split([1, 2, 3], 0.0, np.random.default_rng(0))
        assert val == []
        assert sorted(train) == [1, 2, 3]

    def test_split_invalid(self):
        with pytest.raises(ValueError):
            train_validation_split([1], 1.0, np.random.default_rng(0))


class TestModuleMechanics:
    def test_named_parameters_nested(self):
        model = MLP(2, [3], 1, rng())
        assert list(model.state_dict()) == [
            "body.layer0.weight", "body.layer0.bias",
            "body.layer2.weight", "body.layer2.bias"]

    def test_state_dict_roundtrip(self, tmp_path):
        model = MLP(4, [8], 1, rng())
        reference = model(Tensor(np.ones((2, 4)))).data.copy()
        path = tmp_path / "weights.npz"
        save_state(model, path)
        other = MLP(4, [8], 1, np.random.default_rng(99))
        load_state(other, path)
        np.testing.assert_allclose(other(Tensor(np.ones((2, 4)))).data, reference)

    def test_load_state_dict_mismatch(self):
        a = Linear(2, 2, rng())
        b = Linear(3, 2, rng())
        with pytest.raises((KeyError, ValueError)):
            a.load_state_dict({"nope": np.zeros(1)})
        with pytest.raises(ValueError):
            a.load_state_dict({"weight": np.zeros((3, 2)), "bias": np.zeros(2)})
        del b

    def test_train_eval_propagates(self):
        model = MLP(2, [3], 1, rng())
        model.eval()
        assert not model.body.layer2.training
        model.train()
        assert model.body.layer2.training


class TestLosses:
    def test_q_loss_is_the_mean_absolute_log_difference(self):
        loss = F.q_loss(Tensor([1.0, -2.0]), Tensor([0.0, 0.0]))
        assert loss.item() == pytest.approx(1.5)

    @pytest.mark.parametrize("recording", [False, True],
                             ids=["raw", "taped"])
    def test_q_loss_rejects_mismatched_shapes(self, recording):
        """A ``(3,)`` prediction against a ``(3, 1)`` target once
        broadcast to nine pairs: 0.889 where the loss is 0.0."""
        prediction = Tensor(np.arange(3.0), requires_grad=recording)
        target = np.arange(3.0)[:, None]
        with pytest.raises(ValueError, match="one shape"):
            F.q_loss(prediction, target)
        with pytest.raises(ValueError, match="one shape"):
            F.q_loss(target, prediction)
        assert F.q_loss(prediction, target[:, 0]).item() == 0.0

    def test_q_loss_is_symmetric(self):
        a = Tensor([1.0])
        b = Tensor([3.0])
        assert F.q_loss(a, b).item() == pytest.approx(F.q_loss(b, a).item())
