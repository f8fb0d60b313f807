"""Autograd correctness: analytic gradients vs central finite differences,
and the tape-free contract: off the tape every op returns a raw array."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.featurize.batch import LevelSpec
from repro.models.zero_shot import bottom_up_pass
from repro.nn import MLP
from repro.nn import tensor as T
from repro.nn.module import Parameter
from repro.nn.tensor import (
    RowState,
    RowSums,
    Tensor,
    no_grad,
    _occurrence_ranks,
    rank_rounds,
)


def numerical_gradient(fn, array, eps=1e-6):
    """Central finite-difference gradient of scalar fn wrt array."""
    grad = np.zeros_like(array)
    flat = array.ravel()
    grad_flat = grad.ravel()
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        up = fn()
        flat[i] = original - eps
        down = fn()
        flat[i] = original
        grad_flat[i] = (up - down) / (2 * eps)
    return grad


def check_gradient(build, arrays, atol=1e-5):
    """build(tensors) -> scalar Tensor; arrays are numpy inputs."""
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = build(tensors)
    out.backward()
    for tensor in tensors:
        # finite differences mutate tensor.data in place
        num = numerical_gradient(lambda: _eval(build, tensors), tensor.data)
        assert tensor.grad is not None
        np.testing.assert_allclose(tensor.grad, num, atol=atol, rtol=1e-4)


def _eval(build, tensors):
    with no_grad():
        return build(tensors).item()


def squared(tensor):
    """Elementwise square: makes a gradient depend on the values."""
    return tensor * tensor


RNG = np.random.default_rng(0)


class TestElementaryOps:
    def test_add_broadcast(self):
        a = RNG.normal(size=(3, 4))
        b = RNG.normal(size=(4,))
        check_gradient(lambda ts: T.sum(ts[0] + ts[1]), [a, b])

    def test_mul_broadcast(self):
        a = RNG.normal(size=(2, 3))
        b = RNG.normal(size=(2, 1))
        check_gradient(lambda ts: T.sum(ts[0] * ts[1]), [a, b])

    def test_sub(self):
        a = RNG.normal(size=(5,))
        b = RNG.normal(size=(5,))
        check_gradient(lambda ts: T.sum(ts[0] - ts[1]), [a, b])

    def test_matmul(self):
        a = RNG.normal(size=(3, 4))
        b = RNG.normal(size=(4, 2))
        check_gradient(lambda ts: T.sum(ts[0] @ ts[1]), [a, b])

    @pytest.mark.parametrize("rows", [1, 3])
    def test_linear(self, rows):
        """``linear`` adds the bias into the product in place: the
        values and gradients of ``x @ w + b``, bit for bit."""
        x, w, b = (RNG.normal(size=(rows, 4)), RNG.normal(size=(4, 2)),
                   RNG.normal(size=(2,)))
        check_gradient(lambda ts: T.sum(squared(T.linear(*ts))), [x, w, b])
        fused = [Tensor(a.copy(), requires_grad=True) for a in (x, w, b)]
        split = [Tensor(a.copy(), requires_grad=True) for a in (x, w, b)]
        out = T.linear(*fused)
        reference = split[0] @ split[1] + split[2]
        assert np.array_equal(out.data, reference.data)
        T.sum(squared(out)).backward()
        T.sum(squared(reference)).backward()
        for one, other in zip(fused, split):
            assert np.array_equal(one.grad, other.grad)


class TestNonlinearities:
    """The activations ride on ``linear``: one op per MLP layer."""

    def test_relu(self):
        x, w, b = (RNG.normal(size=(5, 4)), RNG.normal(size=(4, 3)),
                   RNG.normal(size=(3,)))
        check_gradient(lambda ts: T.sum(squared(
            T.linear(*ts, activation="relu"))), [x, w, b])

    def test_leaky_relu(self):
        x, w, b = (RNG.normal(size=(5, 4)), RNG.normal(size=(4, 3)),
                   RNG.normal(size=(3,)))
        check_gradient(lambda ts: T.sum(squared(T.linear(
            *ts, activation="leaky_relu"))), [x, w, b])

    def test_abs(self):
        a = RNG.normal(size=(8,)) + 0.1
        check_gradient(lambda ts: T.sum(T.abs(ts[0])), [a])


def _unfused_activation(x, activation):
    """The activation ops ``linear`` absorbed, as they were: each one
    op of its own after ``linear``, with its own tape node."""
    if activation is None:
        return x
    data = x.data
    if activation == "relu":
        mask = data > 0
        return T._record(data * mask, (x,),
                         lambda grad: x._accumulate(grad * mask))
    slope = T._NEGATIVE_SLOPE
    return T._record(np.maximum(data, data * slope), (x,),
                     lambda grad: x._accumulate(
                         grad * np.where(data > 0, 1.0, slope)))


#: Signed zeros beside ordinary values: ``-0.0`` and ``0.0`` differ in
#: their bits, and a mask or a ``max`` must treat them as before.
_ENTRIES = st.one_of(st.just(0.0), st.just(-0.0),
                     st.floats(min_value=-4.0, max_value=4.0))


def _matrix(data, rows, cols):
    return np.array(data.draw(st.lists(_ENTRIES, min_size=rows * cols,
                                       max_size=rows * cols)),
                    dtype=np.float64).reshape(rows, cols)


@settings(max_examples=150, deadline=None)
@given(rows=st.integers(min_value=1, max_value=4),
       fan_in=st.integers(min_value=1, max_value=4),
       fan_out=st.integers(min_value=1, max_value=4),
       activation=st.sampled_from([None, "relu", "leaky_relu"]),
       data=st.data())
def test_fused_linear_matches_the_unfused_activation(
        rows, fan_in, fan_out, activation, data):
    """Property: ``linear`` with an activation computes, bit for bit,
    the activation applied to ``linear`` without one — the value and
    the gradient of ``x``, ``w`` and ``b`` — for single rows, single
    columns and signed zeros."""
    x, w = _matrix(data, rows, fan_in), _matrix(data, fan_in, fan_out)
    b = _matrix(data, 1, fan_out)[0]
    upstream = _matrix(data, rows, fan_out)
    fused = [Tensor(a.copy(), requires_grad=True) for a in (x, w, b)]
    split = [Tensor(a.copy(), requires_grad=True) for a in (x, w, b)]
    out = T.linear(*fused, activation)
    reference = _unfused_activation(T.linear(*split), activation)
    assert out.data.tobytes() == reference.data.tobytes()
    with no_grad():
        assert T.linear(x, w, b, activation).tobytes() == out.data.tobytes()
    out.backward(upstream)
    reference.backward(upstream)
    for one, other in zip(fused, split):
        assert one.grad.tobytes() == other.grad.tobytes()


class TestReductionsAndShapes:
    def test_sum_axis(self):
        a = RNG.normal(size=(3, 4))
        check_gradient(lambda ts: T.sum(squared(T.sum(ts[0], axis=0))), [a])

    def test_mean(self):
        a = RNG.normal(size=(3, 4))
        check_gradient(lambda ts: T.sum(squared(T.mean(ts[0], axis=1))), [a])

    def test_mean_keepdims(self):
        a = RNG.normal(size=(3, 4))
        check_gradient(lambda ts: T.sum(T.abs(
            ts[0] - T.mean(ts[0], axis=1, keepdims=True))), [a])

    def test_reshape(self):
        a = RNG.normal(size=(3, 4))
        check_gradient(lambda ts: T.sum(squared(T.reshape(ts[0], (4, 3)))), [a])

    def test_index_select_of_a_row_range(self):
        a = RNG.normal(size=(5, 3))
        check_gradient(
            lambda ts: T.sum(squared(T.index_select(ts[0], np.arange(1, 4)))),
            [a])

    def test_index_select_with_duplicates(self):
        a = RNG.normal(size=(4, 3))
        idx = np.array([0, 0, 2, 3, 3, 3])
        check_gradient(lambda ts: T.sum(squared(T.index_select(ts[0], idx))), [a])

    def test_concat(self):
        a = RNG.normal(size=(2, 3))
        b = RNG.normal(size=(4, 3))
        check_gradient(lambda ts: T.sum(squared(T.concat([ts[0], ts[1]], axis=0))), [a, b])

    def test_concat_axis1(self):
        a = RNG.normal(size=(2, 3))
        b = RNG.normal(size=(2, 2))
        check_gradient(lambda ts: T.sum(squared(T.concat([ts[0], ts[1]], axis=1))), [a, b])


class TestGraphMechanics:
    def test_reused_tensor_accumulates(self):
        a = Tensor(np.array([2.0]), requires_grad=True)
        out = a * a + a  # dy/da = 2a + 1 = 5
        out.backward()
        np.testing.assert_allclose(a.grad, [5.0])

    def test_diamond_graph(self):
        a = Tensor(np.array([3.0]), requires_grad=True)
        b = a * 2.0
        c = a * 3.0
        out = T.sum(b + c)  # d/da = 5
        out.backward()
        np.testing.assert_allclose(a.grad, [5.0])

    def test_deep_chain(self):
        a = Tensor(np.array([1.0]), requires_grad=True)
        x = a
        for _ in range(200):
            x = x + 1.0
        T.sum(x).backward()
        np.testing.assert_allclose(a.grad, [1.0])

    def test_no_grad_blocks_recording(self):
        """Off the tape the result is the raw array: nothing to call
        ``backward()`` on, and the operand is left as it was."""
        a = Tensor(np.array([1.0]), requires_grad=True)
        with no_grad():
            out = a * 2.0
        assert type(out) is np.ndarray and np.array_equal(out, [2.0])
        assert a.grad is None and a._parents == ()

    def test_backward_on_non_grad_raises(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_zero_grad(self):
        a = Tensor(np.array([1.0]), requires_grad=True)
        T.sum(a * 2.0).backward()
        assert a.grad is not None
        a.zero_grad()
        assert a.grad is None

    def test_dtype_coercion(self):
        t = Tensor(np.array([1, 2, 3], dtype=np.int32))
        assert t.data.dtype == np.float64

    @pytest.mark.parametrize("shape", [(), (1,), (1, 1)])
    def test_item_reads_one_element_of_any_shape(self, shape):
        value = Tensor(np.full(shape, 2.5)).item()
        assert value == 2.5 and type(value) is float

    def test_item_rejects_more_than_one_element(self):
        with pytest.raises(ValueError):
            Tensor(np.ones(2)).item()


@settings(max_examples=30, deadline=None)
@given(
    rows=st.integers(min_value=1, max_value=6),
    cols=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_sum_then_broadcast_roundtrip(rows, cols, seed):
    """Property: grad of (x + b).sum() wrt b equals the row count."""
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=(rows, cols)))
    b = Tensor(rng.normal(size=(cols,)), requires_grad=True)
    T.sum(x + b).backward()
    np.testing.assert_allclose(b.grad, np.full(cols, rows))


# ----------------------------------------------------------------------
# Row primitives: every scatter against the literal np.zeros + np.add.at
# ----------------------------------------------------------------------
def add_at(rows, indices, num_rows):
    """The reference every row primitive replaced."""
    out = np.zeros((num_rows,) + rows.shape[1:])
    np.add.at(out, indices, rows)
    return out


#: Index sets the primitives must agree with ``add_at`` on; each is
#: (indices, num_rows).
INDEX_SETS = {
    "duplicates": (np.array([2, 0, 2, 2, 5, 0, 2]), 7),
    "one_bucket": (np.array([3, 3, 3, 3]), 4),
    "empty": (np.zeros(0, dtype=np.int64), 3),
    "single_row": (np.array([1]), 2),
    "unsorted_distinct": (np.array([4, 0, 3, 1]), 6),
    "negative": (np.array([-1, 0, -1, 2]), 4),
}


def _rows(count, seed=0, width=3):
    return np.random.default_rng(seed).normal(size=(count, width))


class TestRowPrimitives:
    def test_occurrence_ranks(self):
        np.testing.assert_array_equal(
            _occurrence_ranks(np.array([7, 3, 7, 7, 3])), [0, 0, 1, 2, 1])
        assert _occurrence_ranks(np.zeros(0, dtype=np.int64)).shape == (0,)

    @pytest.mark.parametrize("name", sorted(INDEX_SETS))
    def test_index_select_backward_equals_add_at(self, name):
        indices, num_rows = INDEX_SETS[name]
        source = Tensor(_rows(num_rows), requires_grad=True)
        upstream = _rows(len(indices), seed=1)
        T.index_select(source, indices).backward(upstream)
        assert np.array_equal(source.grad,
                              add_at(upstream, indices, num_rows))

    @pytest.mark.parametrize("name", sorted(INDEX_SETS))
    def test_gather_sum_equals_add_at(self, name):
        """Child rows summed into parent rows, forward and backward."""
        parents, num_parents = INDEX_SETS[name]
        parents = parents % num_parents
        rng = np.random.default_rng(3)
        children = rng.integers(0, 5, size=len(parents))
        states = Tensor(_rows(5), requires_grad=True)
        sums = rank_rounds(children, parents)
        reverse = rank_rounds(parents, children)
        out = T.gather_sum(states, sums, num_parents, reverse)
        assert np.array_equal(
            out.data, add_at(states.data[children], parents, num_parents))
        upstream = _rows(num_parents, seed=4)
        out.backward(upstream)
        assert np.array_equal(
            states.grad, add_at(upstream[parents], children, 5))

    def test_rank_rounds_shape(self):
        """Round k is the k-th source of a prefix of the targets."""
        sums = rank_rounds(np.arange(7), np.array([2, 0, 2, 2, 5, 0, 2]))
        assert isinstance(sums, RowSums)
        np.testing.assert_array_equal(sums.targets, [2, 0, 5])
        assert [r.tolist() for r in sums.rounds] == \
            [[0, 1, 4], [2, 5], [3], [6]]

    def test_rank_rounds_keeps_the_callers_order(self):
        """Explicit ranks override the order the edges arrive in."""
        sources = np.array([10, 11, 12])
        targets = np.array([4, 4, 4])
        sums = rank_rounds(sources, targets, ranks=np.array([2, 0, 1]))
        assert [r.tolist() for r in sums.rounds] == [[11], [12], [10]]

    def test_rank_rounds_rejects_mismatched_edges(self):
        with pytest.raises(ValueError, match="one length"):
            rank_rounds(np.arange(3), np.arange(4))

    def test_gather_sum_rejects_repeated_targets(self):
        bad = RowSums(np.array([1, 1]), (np.array([0, 2]),))
        with pytest.raises(ValueError, match="distinct"):
            T.gather_sum(_rows(3), bad, 2, bad)

    @pytest.mark.parametrize("name", ["empty", "single_row",
                                      "unsorted_distinct"])
    def test_scatter_rows_equals_add_at(self, name):
        indices, num_rows = INDEX_SETS[name]
        rows = _rows(len(indices))
        out = T.scatter_rows([rows], [indices], num_rows)
        assert np.array_equal(out, add_at(rows, indices, num_rows))

    def test_scatter_rows_places_several_pieces(self):
        first, second = _rows(2), _rows(3, seed=1)
        out = T.scatter_rows(
            [first, Tensor(second)],
            [np.array([5, 1]), np.array([0, 4, 2])], 7)
        expected = (add_at(first, np.array([5, 1]), 7)
                    + add_at(second, np.array([0, 4, 2]), 7))
        assert np.array_equal(out, expected)

    @pytest.mark.parametrize("index_sets", [
        [np.array([0, 2, 2])],                    # within a set
        [np.array([0, 1]), np.array([3, 1])],     # across sets
        [np.array([1, -3])],                      # -3 is row 1 of 4
    ], ids=["within", "across", "negative_alias"])
    def test_scatter_rows_rejects_repeated_rows(self, index_sets):
        pieces = [_rows(len(indices)) for indices in index_sets]
        with pytest.raises(ValueError, match="distinct"):
            T.scatter_rows(pieces, index_sets, 4)

    def test_scatter_rows_rejects_malformed_input(self):
        with pytest.raises(ValueError, match="at least one piece"):
            T.scatter_rows([], [], 3)
        with pytest.raises(ValueError, match="indices shape"):
            T.scatter_rows([_rows(2)], [np.array([0])], 3)

    @pytest.mark.parametrize("name", ["empty", "single_row",
                                      "unsorted_distinct"])
    def test_level_equals_state_plus_add_at(self, name):
        """A level writes ``h + (c - h)`` into its parents' rows: what
        adding a zero matrix holding ``c - h`` there computes, in place
        in the pass's own copy, with every other row left alone."""
        indices, num_rows = INDEX_SETS[name]
        initial, combined = _rows(num_rows), _rows(len(indices), seed=1)
        source = initial.copy()
        state = RowState(source)
        inputs = []
        state.level(indices, _NO_SUMS, _NO_SUMS,
                    lambda x: inputs.append(x) or combined)
        (level_input,) = inputs
        assert np.array_equal(level_input[:, :3], initial[indices])
        assert not level_input[:, 3:].any()
        out = state.hand_over()
        # Off the tape the pass is raw arrays throughout.
        assert type(out) is np.ndarray
        delta = combined - initial[indices]
        assert np.array_equal(out, initial + add_at(delta, indices, num_rows))
        # The array handed to the pass is left alone.
        assert np.array_equal(source, initial)
        assert not np.shares_memory(out, source)

    @pytest.mark.parametrize("name", sorted(INDEX_SETS))
    def test_level_input_equals_index_select_beside_gather_sum(self, name):
        """A level's input is its parents' rows beside their children's
        sums, forward and backward, also used without its update."""
        slots, num_parents = INDEX_SETS[name]
        slots = slots % num_parents
        children = np.random.default_rng(3).integers(0, 5, size=len(slots))
        parents = np.arange(5, 5 + num_parents)
        states = Tensor(_rows(5 + num_parents), requires_grad=True)
        inputs = []
        RowState(states).level(
            parents, rank_rounds(children, slots),
            rank_rounds(slots, children),
            lambda x: inputs.append(x) or _rows(num_parents))
        (level_input,) = inputs
        assert np.array_equal(level_input.data, np.concatenate(
            [states.data[parents],
             add_at(states.data[children], slots, num_parents)], axis=1))
        upstream = _rows(num_parents, seed=4, width=6)
        level_input.backward(upstream)
        assert np.array_equal(states.grad, add_at(
            upstream[:, :3], parents, len(states.data)) + add_at(
            upstream[slots, 3:], children, len(states.data)))

    def test_level_rejects_repeated_rows(self):
        state = RowState(_rows(4))
        with pytest.raises(ValueError, match="distinct"):
            state.level(np.array([1, 1]), _NO_SUMS, _NO_SUMS, _no_combine)
        bad = RowSums(np.array([0, 0]), (np.array([2, 3]),))
        with pytest.raises(ValueError, match="distinct"):
            state.level(np.array([1]), bad, bad, _no_combine)

    def test_level_rejects_combined_rows_of_the_wrong_shape(self):
        """A combine whose rows do not match the parents' is refused
        before any row is written."""
        initial = _rows(4)
        state = RowState(initial)
        with pytest.raises(ValueError, match="parent rows"):
            state.level(np.array([1, 3]), _NO_SUMS, _NO_SUMS,
                        lambda x: _rows(1))
        assert np.array_equal(state.hand_over(), initial)

    def test_row_state_refuses_everything_after_the_hand_over(self):
        state = RowState(_rows(4))
        out = state.hand_over()
        assert type(out) is np.ndarray
        before = out.copy()
        with pytest.raises(RuntimeError, match="handed over"):
            state.level(np.array([1]), _NO_SUMS, _NO_SUMS, _no_combine)
        with pytest.raises(RuntimeError, match="handed over"):
            state.hand_over()
        assert np.array_equal(out, before)

    def test_in_place_rows_are_out_of_reach_of_every_other_tensor(self):
        """Only a ``RowState`` updates rows in place, and only in the
        copy it made: not in a raw input, a leaf, a parameter or an op's
        result (whose ``data`` a recorded closure reads), taped or not."""
        assert not hasattr(Tensor, "level")
        weights = Tensor(_rows(3), requires_grad=True)
        sources = [_rows(4), Tensor(_rows(4)),
                   Tensor(_rows(4), requires_grad=True), Parameter(_rows(4)),
                   T.linear(Tensor(_rows(4)), weights, np.zeros(3),
                            "leaky_relu")]
        for source in sources:
            array = T._data(source)
            before = array.copy()
            state = RowState(source)
            for parents, seed in ((np.array([2, 0]), 1), (np.array([3]), 2)):
                state.level(parents, _NO_SUMS, _NO_SUMS, lambda x: Tensor(
                    _rows(len(parents), seed=seed)))
            out = T._data(state.hand_over())
            assert not np.shares_memory(out, array)
            assert np.array_equal(array, before)
            assert not np.array_equal(out, before)

    def test_leaky_relu_equals_the_factor_form(self):
        """``max(x, slope * x)`` is the historical ``x * (1 or slope)``
        bit for bit, also at zeros, infinities and subnormals."""
        values = np.concatenate([
            np.random.default_rng(5).normal(size=200),
            [0.0, -0.0, np.inf, -np.inf, 1e-320, -1e-320],
        ])
        expected = values * np.where(values > 0, 1.0, T._NEGATIVE_SLOPE)
        actual = T._activate(values, "leaky_relu")
        assert actual.tobytes() == expected.tobytes()

    def test_row_primitive_gradients(self):
        """check_gradient over each primitive, repeated rows included."""
        children = np.array([0, 1, 1, 3, 0, 1])
        parents = np.array([2, 0, 2, 1, 2, 0])
        sums = rank_rounds(children, parents)
        reverse = rank_rounds(parents, children)
        check_gradient(
            lambda ts: T.sum(squared(T.gather_sum(ts[0], sums, 3, reverse))),
            [_rows(4)])
        check_gradient(
            lambda ts: T.sum(squared(T.scatter_rows(
                [ts[0], ts[1]], [np.array([3, 0]), np.array([1])], 5,
            ))),
            [_rows(2), _rows(1, seed=1)])
        check_gradient(_two_levels, [_rows(3), _rows(6, seed=1)])
        check_gradient(lambda ts: T.sum(T.abs(ts[0] - ts[1] * 2.0)),
                       [_rows(3), _rows(3, seed=1)])
        check_gradient(
            lambda ts: T.sum(squared(T.index_select(ts[0],
                                                    np.array([0, 0, 2])))),
            [_rows(3)])


#: A level whose parents have no children.
_NO_SUMS = RowSums(np.zeros(0, dtype=np.int64), ())


def _no_combine(level_input):
    """The combine of a level that must be refused before it runs."""
    pytest.fail("the combine of a refused level ran")


def _two_levels(ts):
    """A pass over (input, combine weights) whose two levels update
    overlapping rows: the second sums a row the first wrote and writes
    a row the first wrote.  The first level's input also reaches the
    loss directly, so its gradient arrives beside the update's share
    and the one handed down the chain of updates."""
    state = RowState(ts[0])
    inputs = []

    def combine(bias):
        def run(x):
            inputs.append(x)
            return T.linear(x, ts[1], bias, "leaky_relu")
        return run

    state.level(np.array([2, 0]),
                rank_rounds(np.array([1, 1]), np.array([0, 1])),
                rank_rounds(np.array([0, 1]), np.array([1, 1])),
                combine(np.zeros(3)))
    state.level(np.array([0, 1]),
                rank_rounds(np.array([2, 2]), np.array([0, 1])),
                rank_rounds(np.array([0, 1]), np.array([2, 2])),
                combine(np.full(3, 0.5)))
    out = state.hand_over()
    return T.sum(squared(out)) + T.sum(squared(inputs[0]))


class TestTapeFree:
    """Off the tape an op builds no ``Tensor``: it returns the raw array
    its kernel computed, bit for bit the ``data`` of the taped result."""

    @staticmethod
    def _forward(weights, states):
        """Every op of ``repro.nn.tensor`` once, ``RowState`` included."""
        children = np.array([0, 1, 1, 0])
        parents = np.array([1, 0, 1, 1])
        sums = rank_rounds(children, parents)
        reverse = rank_rounds(parents, children)
        hidden = T.linear(T.add(T._matmul(states, weights), 0.5), weights,
                          np.full(3, 0.1), "leaky_relu")
        hidden = T.linear(hidden, weights, np.full(3, 0.25))
        state = RowState(hidden)
        seen = []

        def combine(level_input):
            combined = T.linear(level_input, T.concat([weights, weights]),
                                np.zeros(3), "relu")
            seen.extend([level_input, combined])
            return combined

        state.level(np.array([3, 2]), sums, reverse, combine)
        level_input, combined = seen
        updated = state.hand_over()
        child_sum = T.gather_sum(updated, sums, 2, reverse)
        placed = T.scatter_rows([child_sum], [np.array([2, 0])], 4)
        stacked = T.concat([placed, T.sub(updated, placed)], axis=1)
        picked = T.index_select(T.reshape(stacked, -1), np.arange(2, 5))
        scaled = T.mul(T.abs(picked), picked)
        return [hidden, level_input, combined, updated, child_sum, placed,
                stacked, picked, scaled, T.sum(stacked, axis=0),
                T.mean(stacked, axis=1), T.mean(scaled)]

    def test_nothing_is_recorded_and_a_taped_forward_still_learns(self):
        weights = Tensor(_rows(3), requires_grad=True)
        states = _rows(4)
        with no_grad():
            tape_free = self._forward(weights, states)
        # Operands that need no grad take the raw path with recording on.
        untaped = self._forward(Tensor(_rows(3)), Tensor(states))
        taped = self._forward(weights, states)
        assert all(type(result) is Tensor and result.requires_grad
                   for result in taped)
        for results in (tape_free, untaped):
            # A full reduction returns what numpy's does, a scalar.
            *arrays, loss = results
            assert all(type(array) is np.ndarray for array in arrays)
            assert type(loss) is np.float64
            for raw, recorded in zip(results, taped):
                assert np.array_equal(raw, recorded.data)
        assert weights.grad is None
        taped[-1].backward()
        assert weights.grad is not None and np.abs(weights.grad).sum() > 0


def _chain_pass(length, chains, width):
    """``(input, loss)`` of a taped ``bottom_up_pass`` over ``chains``
    chains of ``length`` nodes with a one-hidden-layer combine."""
    rng = np.random.default_rng(0)
    combine = MLP(2 * width, [width], width, rng)
    hidden = Tensor(rng.normal(size=(chains * length, width)),
                    requires_grad=True)
    # Node k of chain c is row k * chains + c, the parent of node k - 1.
    slots = np.arange(chains)
    levels = [LevelSpec(slots + k * chains, slots + (k - 1) * chains,
                        slots, {"node": slots})
              for k in range(1, length)]
    return hidden, T.sum(bottom_up_pass(hidden, levels, lambda _: combine))


def _tape_nodes(out):
    """How many tensors the tape of ``out`` holds, leaves included."""
    seen, pending = set(), [out]
    while pending:
        node = pending.pop()
        if id(node) not in seen:
            seen.add(id(node))
            pending.extend(node._parents)
    return len(seen)


class TestPassWork:
    """What a taped pass allocates and records is **counted, not
    timed**."""

    @staticmethod
    def _peak_in_states(length, chains=50, width=32):
        """``tracemalloc`` peak of ``bottom_up_pass`` + ``backward()``
        over ``chains`` chains of ``length`` nodes, in units of one
        ``[N, width]`` state."""
        tracemalloc.start()
        try:
            hidden, loss = _chain_pass(length, chains, width)
            loss.backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.abs(hidden.grad).sum() > 0
        return peak / hidden.data.nbytes

    def test_a_pass_costs_nodes_not_levels_times_nodes(self):
        """Every level keeps its own rows on the tape (activations and
        their gradients, ~23 states' worth in total whatever the
        depth); a state or a gradient *per level* grows with it
        (60 -> 180 before the pass owned one buffer)."""
        shallow = self._peak_in_states(20)
        deep = self._peak_in_states(80)
        assert abs(deep / shallow - 1.0) < 0.10, (shallow, deep)

    @pytest.mark.parametrize("levels", [1, 4, 9])
    def test_a_level_records_four_tape_nodes(self, levels):
        """A level is its combine's input, one ``linear`` per MLP layer
        (activation included) and the update: 4 nodes with a
        one-hidden-layer combine, where ``gather_sum``,
        ``index_select``, ``concat``, ``sub``, the update and a
        separate activation made 8.  The rest is the input, the pass's
        copy of it, the four combine parameters and the sum."""
        _, loss = _chain_pass(levels + 1, chains=3, width=2)
        assert _tape_nodes(loss) == 4 * levels + 7


@settings(max_examples=60, deadline=None)
@given(
    edges=st.integers(min_value=0, max_value=40),
    num_children=st.integers(min_value=1, max_value=6),
    num_parents=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_gather_sum_matches_add_at(edges, num_children, num_parents, seed):
    """Property: rank rounds add bit for bit what np.add.at adds, in
    both directions, whatever the edge multiset."""
    rng = np.random.default_rng(seed)
    children = rng.integers(0, num_children, size=edges)
    parents = rng.integers(0, num_parents, size=edges)
    states = Tensor(rng.normal(size=(num_children, 4)), requires_grad=True)
    out = T.gather_sum(states, rank_rounds(children, parents), num_parents,
                       rank_rounds(parents, children))
    assert np.array_equal(
        out.data, add_at(states.data[children], parents, num_parents))
    upstream = rng.normal(size=(num_parents, 4))
    out.backward(upstream)
    assert np.array_equal(
        states.grad, add_at(upstream[parents], children, num_children))


def _functional_pass(hidden, levels, combine_of):
    """``bottom_up_pass`` written on values: every level builds a new
    state by a scatter into zeros plus a full-width add, and every
    gather's gradient comes back the same way (``add_at``)."""
    def gather(state, rows):
        return T._record(state.data[rows], (state,),
                         lambda grad: state._accumulate(
                             add_at(grad, rows, len(state.data))))

    def scatter(values, rows, num_rows):
        return T._record(add_at(values.data, rows, num_rows), (values,),
                         lambda grad: values._accumulate(grad[rows]))

    for level in levels:
        num_parents = len(level.parent_ids)
        child_sum = scatter(gather(hidden, level.edge_child_ids),
                            level.edge_parent_slots, num_parents)
        parent_hidden = gather(hidden, level.parent_ids)
        stacked = T.concat([parent_hidden, child_sum], axis=1)
        combined = T.scatter_rows(
            [combine_of(node_type)(T.index_select(stacked, slots))
             for node_type, slots in level.type_slots.items()],
            list(level.type_slots.values()), num_parents)
        hidden = hidden + scatter(combined - parent_hidden,
                                  level.parent_ids, len(hidden.data))
    return hidden


@settings(max_examples=60, deadline=None)
@given(
    depth=st.integers(min_value=1, max_value=5),
    width=st.integers(min_value=1, max_value=5),
    fan_in=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_bottom_up_pass_matches_its_functional_twin(depth, width, fan_in,
                                                    seed):
    """Property: one buffer updated in place computes, bit for bit, the
    states and the gradients (initial states and combine weights) of a
    new state per level — for any level structure: distinct parents per
    level, children drawn with repeats from every lower level, so a
    child feeds several parents of one level and of different levels."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, width + 1, size=depth + 1)
    starts = np.concatenate([[0], np.cumsum(sizes)])
    levels = []
    for k in range(1, depth + 1):
        parents = rng.permutation(np.arange(starts[k], starts[k + 1]))
        edges = int(rng.integers(1, fan_in * len(parents) + 1))
        kinds = rng.integers(0, 2, size=len(parents))
        levels.append(LevelSpec(
            parents, rng.integers(0, starts[k], size=edges),
            rng.integers(0, len(parents), size=edges),
            {name: np.flatnonzero(kinds == kind)
             for kind, name in enumerate("ab") if (kinds == kind).any()}))
    initial = rng.normal(size=(starts[-1], 4))
    readout = rng.normal(size=initial.shape)

    def run(pass_fn):
        combines = {name: MLP(8, [5], 4, np.random.default_rng(seed + i))
                    for i, name in enumerate("ab")}
        hidden = Tensor(initial.copy(), requires_grad=True)
        out = pass_fn(hidden, levels, combines.__getitem__)
        T.sum(out * readout).backward()
        return [out.data, hidden.grad] + [
            parameter.grad for combine in combines.values()
            for parameter in combine.parameters()]

    for actual, expected in zip(run(bottom_up_pass), run(_functional_pass)):
        assert (actual is None) == (expected is None)
        assert actual is None or np.array_equal(actual, expected)


class _FiveOpRowState:
    """The pass state as it was before a level became one call: two
    gathers out of the buffer and an in-place update of distinct rows,
    whose backward hands its gradient buffer down by reference."""

    def __init__(self, initial):
        self.current = RowState(initial).hand_over()

    def index_select(self, indices):
        return T.index_select(self.current, indices)

    def gather_sum(self, sums, num_rows, reverse):
        return T.gather_sum(self.current, sums, num_rows, reverse)

    def add_rows(self, indices, delta):
        state, data = self.current, T._data(self.current)
        T._require_distinct((indices,), len(data), "add_rows")
        T._add_rows(data, indices, T._data(delta))
        parents = T._tape(state, delta)
        if not parents:
            return

        def backward(grad):
            if T._needs_grad(delta):
                delta._accumulate(grad.take(indices, axis=0))
            if T._needs_grad(state):
                if state.grad is None:
                    state.grad = grad
                else:
                    state.grad += grad

        self.current = T._record(data, parents, backward)


def _five_op_pass(hidden, levels, combine_of):
    """``bottom_up_pass`` as it was: ``gather_sum``, ``index_select``,
    ``concat``, the combine, ``sub`` and ``add_rows`` per level."""
    state = _FiveOpRowState(hidden)
    for level in levels:
        num_parents = len(level.parent_ids)
        child_sum = state.gather_sum(level.child_sums, num_parents,
                                     lambda level=level: level.grad_sums)
        parent_hidden = state.index_select(level.parent_ids)
        stacked = T.concat([parent_hidden, child_sum], axis=1)
        if len(level.type_slots) == 1:
            (node_type,) = level.type_slots
            combined = combine_of(node_type)(stacked)
        else:
            combined = T.scatter_rows(
                [combine_of(node_type)(T.index_select(stacked, slots))
                 for node_type, slots in level.type_slots.items()],
                list(level.type_slots.values()), num_parents)
        state.add_rows(level.parent_ids, T.sub(combined, parent_hidden))
    return state.current


@settings(max_examples=60, deadline=None)
@given(
    depth=st.integers(min_value=1, max_value=5),
    width=st.integers(min_value=1, max_value=5),
    fan_in=st.integers(min_value=1, max_value=4),
    kinds=st.integers(min_value=1, max_value=2),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_level_call_matches_the_five_op_level(depth, width, fan_in, kinds,
                                             seed):
    """Property: a level as one ``RowState.level`` call computes,
    bit for bit, the states and every gradient of the five ops it
    replaced — with one or two node types per level, children shared
    within and across levels, parents without children, and signed
    zeros among the initial states."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, width + 1, size=depth + 1)
    starts = np.concatenate([[0], np.cumsum(sizes)])
    specs = []
    for k in range(1, depth + 1):
        parents = rng.permutation(np.arange(starts[k], starts[k + 1]))
        edges = int(rng.integers(0, fan_in * len(parents) + 1))
        types = rng.integers(0, kinds, size=len(parents))
        specs.append(LevelSpec(
            parents, rng.integers(0, starts[k], size=edges),
            rng.integers(0, len(parents), size=edges),
            {name: np.flatnonzero(types == kind)
             for kind, name in enumerate("ab") if (types == kind).any()}))
    initial = rng.normal(size=(starts[-1], 3))
    initial[rng.random(initial.shape) < 0.2] = 0.0
    initial[rng.random(initial.shape) < 0.2] = -0.0
    readout = rng.normal(size=initial.shape)

    def run(pass_fn, taped):
        combines = {name: MLP(6, [4], 3, np.random.default_rng(seed + i))
                    for i, name in enumerate("ab")}
        hidden = Tensor(initial.copy(), requires_grad=True)
        if not taped:
            with no_grad():
                return [pass_fn(hidden, specs, combines.__getitem__)]
        out = pass_fn(hidden, specs, combines.__getitem__)
        T.sum(out * readout).backward()
        return [out.data, hidden.grad] + [
            parameter.grad for combine in combines.values()
            for parameter in combine.parameters()]

    for taped in (False, True):
        for actual, expected in zip(run(bottom_up_pass, taped),
                                    run(_five_op_pass, taped)):
            assert (actual is None) == (expected is None)
            assert actual is None or actual.tobytes() == expected.tobytes()
