"""Reverse-mode automatic differentiation over numpy arrays.

Every op is a function of ``Tensor | ndarray`` operands, in the manner
of autograd's ``kyapply``: it computes its result with one raw-ndarray
kernel and returns that ``ndarray`` unless an operand is *recording* —
a :class:`Tensor` that requires grad, outside :func:`no_grad`.  Only
then does the op wrap the result in a ``Tensor``, link the recording
operands as its parents and build the closure that accumulates their
gradients.  ``Tensor.backward()`` runs a topological sort of the
recorded graph and applies the closures in reverse order.  Inference
therefore builds no ``Tensor`` at all, and inference and training run
one forward on the same kernels.  A full reduction off the tape returns
what numpy's does, a numpy scalar.

The ops are the ones the cost models need — ``add``, ``sub``, ``mul``
(``+ - *`` on a ``Tensor``; ``@`` is the private ``_matmul``),
``linear`` (``x @ w + b`` through an optional ``relu`` or
``leaky_relu``: one ``MLP`` layer, one tape node), ``abs``, ``sum``,
``mean``, ``reshape``, ``concat`` and the row primitives below —
implemented fully (broadcasting-aware, with correct gradient
reduction).  ``abs`` and ``sum`` shadow the builtins inside this
module, as numpy's do in ``np``.

Row movement — the message passing of the DAG models — goes through
three structure-aware primitives instead of ``ufunc.at``, which is an
order of magnitude slower than fancy-index assignment:

* :func:`scatter_rows` places rows at *distinct* positions (a
  plain assignment);
* :func:`gather_sum` sums gathered rows in precomputed *rank
  rounds* (:class:`RowSums`, :func:`rank_rounds`): round ``k`` adds
  every target's ``k``-th source, so a round touches each target once
  while every target still adds its sources left to right — bit for
  bit what the unbuffered ``ufunc.at`` add computes, which a sorted
  ``np.add.reduceat`` is not;
* :class:`RowState` is the one ``[N, W]`` buffer a level-by-level pass
  owns, and the one gradient buffer on the way back: a level writes its
  combine's input once and updates its distinct parent rows in place
  (:meth:`RowState.level`).

The gradient of gathered rows arrives the same way it left: the
backward of :func:`index_select`, :func:`gather_sum` and a level's input
adds into the rows it read (``grad[rows] += g``), never through a
zero-filled ``[N, ...]`` temporary.
"""

from __future__ import annotations

import contextlib
from typing import Callable, NamedTuple, Sequence

import numpy as np

__all__ = ["Tensor", "no_grad", "RowState", "RowSums", "rank_rounds", "add",
           "sub", "mul", "linear", "abs", "sum", "mean", "reshape",
           "concat", "index_select", "gather_sum", "scatter_rows"]

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph recording (like ``torch.no_grad``)."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so it matches ``shape`` after numpy broadcasting.

    numpy broadcasting can add leading axes and stretch length-1 axes;
    the gradient of a broadcast is the sum over the broadcast axes.
    """
    if grad.shape == shape:
        return grad
    # Sum out prepended axes.
    extra_axes = grad.ndim - len(shape)
    if extra_axes > 0:
        grad = grad.sum(axis=tuple(range(extra_axes)))
    # Sum over axes that were stretched from length 1.
    stretched = tuple(
        axis for axis, length in enumerate(shape) if length == 1 and grad.shape[axis] != 1
    )
    if stretched:
        grad = grad.sum(axis=stretched, keepdims=True)
    return grad.reshape(shape)


def _as_array(value) -> np.ndarray:
    if isinstance(value, np.ndarray):
        if value.dtype != np.float64:
            return value.astype(np.float64)
        return value
    return np.asarray(value, dtype=np.float64)


def _stable_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product whose per-row results are batch-size invariant.

    BLAS picks different kernels (with different reduction orders) by
    operand shape, so ``A[i:i+1] @ B`` is not bitwise equal to row
    ``i`` of ``A @ B``; products with a single *output* column switch
    kernels by row count as well.  Two fixes keep every per-row result
    independent of how many rows ride in the batch:

    * single-column products use an explicit row-wise pairwise
      reduction (numpy's, whose order depends only on the row length);
    * single-row operands are padded onto the general gemm path, whose
      per-row results are row-count invariant.

    Together they make a forward pass bit-identical whether a sample is
    processed alone or inside a batch — the guarantee batch-size-
    invariant inference (and the ``repro.serve`` micro-batching service
    built on it) relies on.
    """
    if a.ndim == 2 and b.ndim == 2:
        if b.shape[1] == 1:
            return (a * b[:, 0]).sum(axis=1)[:, None]
        if a.shape[0] == 1:
            return (np.concatenate([a, a], axis=0) @ b)[:1]
    return a @ b


# ----------------------------------------------------------------------
# Row kernels (raw ndarrays; shared by the taped and the tape-free mode)
# ----------------------------------------------------------------------
class RowSums(NamedTuple):
    """Which rows are summed into which, as rank rounds.

    ``rounds[k][i]`` is the ``k``-th source row of ``targets[i]``.  The
    targets are distinct and listed by descending number of sources, so
    the targets that still have a ``k``-th source are the first
    ``len(rounds[k])``: a round is one gather plus an add onto a prefix
    of the accumulator, never a scatter.
    """

    targets: np.ndarray
    rounds: tuple[np.ndarray, ...]


def _occurrence_ranks(keys: np.ndarray) -> np.ndarray:
    """For every element, how many earlier elements carry the same key.

    ``_occurrence_ranks([7, 3, 7, 7, 3]) == [0, 0, 1, 2, 1]``: the rank
    of an edge within its parent when ``keys`` are the parents of an
    edge list.
    """
    keys = np.asarray(keys, dtype=np.int64)
    count = len(keys)
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    positions = np.arange(count)
    # Start of each run of equal keys, carried forward over the run.
    new_run = np.ones(count, dtype=bool)
    new_run[1:] = ordered[1:] != ordered[:-1]
    run_starts = np.where(new_run, positions, 0)
    ranks = np.empty(count, dtype=np.int64)
    ranks[order] = positions - np.maximum.accumulate(run_starts)
    return ranks


def rank_rounds(sources: np.ndarray, targets: np.ndarray,
                ranks: np.ndarray | None = None) -> RowSums:
    """The :class:`RowSums` of the edge list ``sources[i] -> targets[i]``.

    Every target adds its sources in edge order — or, with ``ranks``
    (see :func:`_occurrence_ranks`), in the order the caller ranked them
    in before it reordered the edges.
    """
    sources = np.asarray(sources, dtype=np.int64)
    targets = np.asarray(targets, dtype=np.int64)
    if sources.shape != targets.shape or sources.ndim != 1:
        raise ValueError(
            f"sources {sources.shape} and targets {targets.shape} must be "
            f"1-d index arrays of one length")
    if len(targets) == 0:
        return RowSums(targets, ())
    if ranks is None:
        ranks = _occurrence_ranks(targets)
    if not ranks.any():
        return RowSums(targets, (sources,))
    fan_in = np.bincount(targets)[targets]
    order = np.lexsort((targets, -fan_in, ranks))
    bounds = np.searchsorted(ranks[order], np.arange(ranks.max() + 2))
    sources, targets = sources[order], targets[order]
    return RowSums(targets[:bounds[1]],
                   tuple(sources[start:stop]
                         for start, stop in zip(bounds[:-1], bounds[1:])))


def _distinct(index_sets: Sequence[np.ndarray], num_rows: int) -> bool:
    """Whether all indices of all sets name pairwise distinct rows."""
    seen = np.zeros(num_rows, dtype=bool)
    total = 0
    for indices in index_sets:
        seen[indices] = True
        total += len(indices)
    return int(np.count_nonzero(seen)) == total


def _require_distinct(index_sets: Sequence[np.ndarray], num_rows: int,
                      what: str) -> None:
    if not _distinct(index_sets, num_rows):
        raise ValueError(
            f"{what} needs pairwise distinct row indices; duplicates would "
            f"silently drop contributions (use gather_sum to accumulate)")


def _row_shape(num_rows: int, like: np.ndarray) -> tuple[int, ...]:
    return (num_rows,) + like.shape[1:]


def _scatter_rows(pieces: Sequence[np.ndarray],
                  index_sets: Sequence[np.ndarray],
                  num_rows: int) -> np.ndarray:
    """Zeros with ``pieces[i]`` assigned to rows ``index_sets[i]``."""
    _require_distinct(index_sets, num_rows, "scatter_rows")
    out = np.zeros(_row_shape(num_rows, pieces[0]))
    for piece, indices in zip(pieces, index_sets):
        out[indices] = piece
    return out


def _place_rows(rows: np.ndarray, values: np.ndarray,
                num_rows: int) -> np.ndarray:
    """Zeros with ``values`` assigned to the *distinct* ``rows``."""
    out = np.zeros(_row_shape(num_rows, values))
    out[rows] = values
    return out


def _add_rows(state: np.ndarray, rows: np.ndarray,
              delta: np.ndarray) -> None:
    """``state[rows] += delta`` in place, for *distinct* ``rows`` (the
    caller checks): per row the ``h + d`` of a full-width add, and the
    other rows are not read at all."""
    updated = state.take(rows, axis=0)
    updated += delta
    state[rows] = updated


def _round_sums(data: np.ndarray, sums: RowSums,
                num_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """The targets of ``sums`` and, for each, ``data[s1] + data[s2] +
    ...`` over its sources in round order."""
    targets, rounds = sums
    if not rounds:
        return targets[:0], data[:0]
    _require_distinct((targets,), num_rows, "gather_sum")
    summed = data.take(rounds[0], axis=0)
    for sources in rounds[1:]:
        summed[:len(sources)] += data.take(sources, axis=0)
    return targets, summed


def _sums_by_row(values: np.ndarray, indices: np.ndarray,
                 num_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows ``indices`` name and, for each, the sum of its
    ``values[i]``, repeats included and in order (what the unbuffered
    ``ufunc.at`` add accumulates per row)."""
    if _distinct((indices,), num_rows):
        return indices, values
    indices = np.where(indices < 0, indices + num_rows, indices)
    return _round_sums(
        values, rank_rounds(np.arange(len(indices)), indices), num_rows)


def _data(value) -> np.ndarray:
    """The array of an operand: a tensor's data, a raw value as is."""
    return value.data if isinstance(value, Tensor) else value


def _needs_grad(value) -> bool:
    return isinstance(value, Tensor) and value.requires_grad


def _tape(*operands) -> tuple["Tensor", ...]:
    """The operands an op has to record as its parents: none under
    :func:`no_grad`, else those that require grad."""
    if not _GRAD_ENABLED:
        return ()
    return tuple(value for value in operands if _needs_grad(value))


def _record(data: np.ndarray, parents: tuple["Tensor", ...],
            backward: Callable[[np.ndarray], None]) -> "Tensor":
    """Put a freshly computed result on the tape.

    Ops call it only when :func:`_tape` names parents, and build the
    ``backward`` closure inside that branch: off the tape an op
    allocates its raw result and nothing else.
    """
    out = Tensor(data, requires_grad=True)
    out._parents = parents
    out._backward = backward
    return out


class Tensor:
    """A numpy array with reverse-mode autograd.

    Parameters
    ----------
    data:
        Anything convertible to a float64 numpy array.
    requires_grad:
        Whether gradients should be accumulated into :attr:`grad`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._backward: Callable[[np.ndarray], None] | None = None
        self._parents: tuple[Tensor, ...] = ()
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        """The one element as a float, whatever the shape (``()``,
        ``(1,)``, ``(1, 1)``); more than one raises ``ValueError``."""
        return self.data.item()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}{label})"

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __matmul__(self, other):
        return _matmul(self, other)

    def _accumulate(self, grad: np.ndarray) -> None:
        grad = _unbroadcast(grad, self.data.shape)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad += grad

    def _accumulate_rows(self, rows: np.ndarray, grad: np.ndarray) -> None:
        """``self.grad[rows] += grad`` for *distinct* ``rows``: the
        gradient of gathered rows, added where they were read."""
        if self.grad is None:
            self.grad = _place_rows(rows, grad, len(self.data))
        else:
            _add_rows(self.grad, rows, grad)

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Run reverse-mode differentiation from this tensor.

        ``grad`` defaults to ones (so scalars need no argument).
        """
        if not self.requires_grad:
            raise RuntimeError("called backward() on a tensor that does not require grad")
        if grad is None:
            grad = np.ones_like(self.data)
        else:
            grad = _as_array(grad)

        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def zero_grad(self) -> None:
        self.grad = None


# ----------------------------------------------------------------------
# Arithmetic
# ----------------------------------------------------------------------
def add(a, b) -> Tensor | np.ndarray:
    """``a + b``, broadcasting."""
    out = _data(a) + _data(b)
    parents = _tape(a, b)
    if not parents:
        return out

    def backward(grad: np.ndarray) -> None:
        for operand in parents:
            operand._accumulate(grad)

    return _record(out, parents, backward)


def sub(a, b) -> Tensor | np.ndarray:
    """``a - b``, broadcasting."""
    out = _data(a) - _data(b)
    parents = _tape(a, b)
    if not parents:
        return out

    def backward(grad: np.ndarray) -> None:
        if _needs_grad(a):
            a._accumulate(grad)
        if _needs_grad(b):
            b._accumulate(-grad)

    return _record(out, parents, backward)


def mul(a, b) -> Tensor | np.ndarray:
    """``a * b``, elementwise and broadcasting."""
    out = _data(a) * _data(b)
    parents = _tape(a, b)
    if not parents:
        return out

    def backward(grad: np.ndarray) -> None:
        if _needs_grad(a):
            a._accumulate(grad * _data(b))
        if _needs_grad(b):
            b._accumulate(grad * _data(a))

    return _record(out, parents, backward)


def _matmul_backward(a, b, grad: np.ndarray) -> None:
    """Hand the gradient of ``a @ b`` to the operands that record."""
    if _needs_grad(a):
        a._accumulate(_stable_matmul(grad, _data(b).swapaxes(-1, -2)))
    if _needs_grad(b):
        b._accumulate(_stable_matmul(_data(a).swapaxes(-1, -2), grad))


def _matmul(a, b) -> Tensor | np.ndarray:
    """``a @ b`` through :func:`_stable_matmul`."""
    out = _stable_matmul(_data(a), _data(b))
    parents = _tape(a, b)
    if not parents:
        return out
    return _record(out, parents, lambda grad: _matmul_backward(a, b, grad))


#: What :func:`linear` may apply after the affine map, beside ``None``.
_ACTIVATIONS = ("relu", "leaky_relu")

#: The slope of ``leaky_relu`` below zero.
_NEGATIVE_SLOPE = 0.01


def _activate(pre: np.ndarray, activation: str | None) -> np.ndarray:
    """``pre`` through an activation (``None`` returns it as is):
    ``relu`` is ``max(x, 0)``, ``leaky_relu`` is ``x`` where positive and
    ``_NEGATIVE_SLOPE * x`` elsewhere."""
    if activation is None:
        return pre
    if activation == "relu":
        return pre * (pre > 0)
    # x > 0 -> x > slope * x and x < 0 -> slope * x > x (0 < slope < 1),
    # so the larger of the two *is* ``x * (1 or slope)``, bit for bit,
    # without a mask-and-select.
    return np.maximum(pre, pre * _NEGATIVE_SLOPE)


def linear(x, weight, bias, activation: str | None = None
           ) -> Tensor | np.ndarray:
    """``x @ weight + bias`` through ``activation`` (``None`` or one of
    ``_ACTIVATIONS``; ``MLP`` checks the name once, when it is built):
    one layer of an ``MLP``, one tape node.

    The bias is added into the fresh product in place, and the backward
    multiplies the gradient by the activation's derivative before it
    forms the bias and matmul gradients: bit for bit the affine map
    followed by the activation as an op of its own, without the second
    dispatch, the second tape node and the gradient copy between them.
    """
    pre = _stable_matmul(_data(x), _data(weight))
    pre += _data(bias)
    out = _activate(pre, activation)
    parents = _tape(x, weight, bias)
    if not parents:
        return out

    def backward(grad: np.ndarray) -> None:
        if activation == "relu":
            grad = grad * (pre > 0)
        elif activation == "leaky_relu":
            grad = grad * np.where(pre > 0, 1.0, _NEGATIVE_SLOPE)
        if _needs_grad(bias):
            bias._accumulate(grad)
        _matmul_backward(x, weight, grad)

    return _record(out, parents, backward)


# ----------------------------------------------------------------------
# Elementwise functions
# ----------------------------------------------------------------------
def abs(x) -> Tensor | np.ndarray:
    """``|x|``, elementwise."""
    data = _data(x)
    out = np.abs(data)
    parents = _tape(x)
    if not parents:
        return out
    return _record(out, parents,
                   lambda grad: x._accumulate(grad * np.sign(data)))


# ----------------------------------------------------------------------
# Reductions and shapes
# ----------------------------------------------------------------------
def sum(x, axis: int | tuple[int, ...] | None = None,
        keepdims: bool = False) -> Tensor | np.ndarray:
    """The sum over ``axis`` (all axes by default)."""
    data = _data(x)
    out = data.sum(axis=axis, keepdims=keepdims)
    parents = _tape(x)
    if not parents:
        return out

    def backward(grad: np.ndarray) -> None:
        expanded = grad
        if axis is not None and not keepdims:
            axes = (axis,) if isinstance(axis, int) else axis
            for ax in sorted(a % data.ndim for a in axes):
                expanded = np.expand_dims(expanded, ax)
        x._accumulate(np.broadcast_to(expanded, data.shape))

    return _record(out, parents, backward)


def mean(x, axis: int | tuple[int, ...] | None = None,
         keepdims: bool = False) -> Tensor | np.ndarray:
    """The mean over ``axis``: :func:`sum` times ``1 / count``."""
    data = _data(x)
    if axis is None:
        count = data.size
    else:
        axes = (axis,) if isinstance(axis, int) else axis
        count = int(np.prod([data.shape[a % data.ndim] for a in axes]))
    return mul(sum(x, axis=axis, keepdims=keepdims), 1.0 / count)


def reshape(x, shape) -> Tensor | np.ndarray:
    """``x`` in the given shape (``-1`` infers one axis)."""
    data = _data(x)
    out = data.reshape(shape)
    parents = _tape(x)
    if not parents:
        return out
    return _record(out, parents,
                   lambda grad: x._accumulate(grad.reshape(data.shape)))


def concat(values: Sequence, axis: int = 0) -> Tensor | np.ndarray:
    """``values`` joined along ``axis``."""
    arrays = [_data(value) for value in values]
    out = np.concatenate(arrays, axis=axis)
    parents = _tape(*values)
    if not parents:
        return out
    offsets = np.cumsum([0] + [array.shape[axis] for array in arrays])

    def backward(grad: np.ndarray) -> None:
        for value, start, stop in zip(values, offsets[:-1], offsets[1:]):
            if _needs_grad(value):
                slicer = [slice(None)] * grad.ndim
                slicer[axis] = slice(start, stop)
                value._accumulate(grad[tuple(slicer)])

    return _record(out, parents, backward)


# ----------------------------------------------------------------------
# Row movement (see the module docstring)
# ----------------------------------------------------------------------
def index_select(x, indices) -> Tensor | np.ndarray:
    """Rows of ``x`` by an integer index array (duplicates allowed)."""
    data = _data(x)
    indices = np.asarray(indices, dtype=np.int64)
    out = data.take(indices, axis=0)
    parents = _tape(x)
    if not parents:
        return out
    return _record(out, parents, lambda grad: x._accumulate_rows(
        *_sums_by_row(grad, indices, len(data))))


def gather_sum(x, sums: RowSums, num_rows: int,
               reverse: RowSums | Callable[[], RowSums]
               ) -> Tensor | np.ndarray:
    """Row ``t`` of the ``[num_rows, ...]`` result sums the rows of
    ``x`` that ``sums`` routes to ``t`` — DeepSets child aggregation,
    with ``x`` the node states and ``t`` the parents of one level.

    ``sums`` are the :func:`rank_rounds` of the edge list (child row,
    parent row): each parent adds its children left to right.
    ``reverse`` are those of the reversed edges (parent row, child
    row); the backward pass runs the same kernel over them, so a child
    of several parents sums their gradients in edge order.  Both are
    precomputed by whoever knows the structure
    (``repro.featurize.batch`` derives them with the level plan, the
    collate functions once per batch): no call sorts anything.
    ``reverse`` may also be a function returning them, called only
    when a backward pass reaches this op: a forward off the tape never
    needs them.
    """
    data = _data(x)
    out = _place_rows(*_round_sums(data, sums, num_rows), num_rows)
    parents = _tape(x)
    if not parents:
        return out
    return _record(out, parents, lambda grad: x._accumulate_rows(
        *_round_sums(grad, reverse() if callable(reverse) else reverse,
                     len(data))))


def scatter_rows(pieces: Sequence, index_sets: Sequence[np.ndarray],
                 num_rows: int) -> Tensor | np.ndarray:
    """A ``[num_rows, ...]`` matrix of zeros with the rows of
    ``pieces[i]`` placed at ``index_sets[i]``.

    All indices must be pairwise distinct (within and across sets;
    node-type positions and type slots are): the rows are assigned, not
    added to the zeros.
    """
    if not pieces or len(pieces) != len(index_sets):
        raise ValueError(
            f"scatter_rows needs one index set per piece and at least "
            f"one piece, got {len(pieces)} and {len(index_sets)}")
    arrays = [_data(piece) for piece in pieces]
    index_sets = [np.asarray(indices, dtype=np.int64)
                  for indices in index_sets]
    for array, indices in zip(arrays, index_sets):
        if indices.shape != array.shape[:1]:
            raise ValueError(
                f"indices shape {indices.shape} != rows {array.shape[:1]}")
    out = _scatter_rows(arrays, index_sets, num_rows)
    parents = _tape(*pieces)
    if not parents:
        return out

    def backward(grad: np.ndarray) -> None:
        for piece, indices in zip(pieces, index_sets):
            if _needs_grad(piece):
                piece._accumulate(grad.take(indices, axis=0))

    return _record(out, parents, backward)


class RowState:
    """The ``[N, W]`` state of one level-by-level pass: one private
    buffer forward, one gradient buffer back.

    The pass copies its input once, into a buffer nobody else holds,
    and every level writes its parents' rows there *in place*, where an
    op would copy the whole state to change a few rows and its backward
    the whole gradient.  Writing in place is only sound while no
    recorded closure reads the buffer, so the state is handed to no op
    until the pass is over.  A level is one call, :meth:`level`: it
    copies the rows the level's combine reads *out*, into one fresh
    ``[P, 2W]`` matrix whose backward needs the indices alone, runs the
    combine on it and writes the combined rows back.  :meth:`hand_over`
    ends the pass; the buffer then belongs to the caller and this
    object refuses every call.  No value that exists outside the pass —
    its input, a leaf, a parameter — can be written to through here.

    Off the tape the state is a raw ``ndarray`` throughout.  On the
    tape a level is two :class:`Tensor` nodes, the combine input and
    the update, which shares the buffer.  The update's backward gives
    ``combined`` the gradient rows it wrote and hands the *same*
    gradient array to the state below, into which the combine input's
    backward then adds the rows it read: a row receives the additions a
    chain of copied states would give it, in the same order (higher
    levels first).  After a backward pass the ``grad`` of the tensor
    handed over is therefore that shared buffer, not its own gradient.
    """

    __slots__ = ("_current",)

    def __init__(self, initial):
        current = _data(initial).copy()
        parents = _tape(initial)
        if parents:
            current = _record(current, parents, initial._accumulate)
        self._current = current

    def _live(self):
        if self._current is None:
            raise RuntimeError(
                "this RowState was handed over: its buffer belongs to the "
                "value hand_over() returned and is no longer written to")
        return self._current

    def level(self, parents: np.ndarray, sums: RowSums,
              reverse: RowSums | Callable[[], RowSums],
              combine: Callable) -> None:
        """One level: the *distinct* rows ``parents`` become
        ``h + (c - h)``, with ``c = combine(x)`` for the ``[P, 2W]``
        input ``x`` whose row ``i`` holds ``h``, the current row
        ``parents[i]``, on the left and, on the right, the sum of the
        rows ``sums`` routes to ``i`` (zeros where none is; ``reverse``
        routes the gradient back).  Per row that is what adding a zero
        matrix holding ``c - h`` at the parents computes, with no other
        row read or written (writing ``c`` itself rounds differently).
        """
        state = self._live()
        data = _data(state)
        parents = np.asarray(parents, dtype=np.int64)
        _require_distinct((parents,), len(data), "level")
        num_parents, width = len(parents), data.shape[1]
        out = np.empty((num_parents, 2 * width))
        hidden = out[:, :width]
        hidden[...] = data.take(parents, axis=0)
        targets, summed = _round_sums(data, sums, num_parents)
        child_sums = out[:, width:]
        if len(targets) < num_parents:
            child_sums[...] = 0.0
        child_sums[targets] = summed
        recorded = _tape(state)
        #: The update's gradient of the parents' rows, once it has run.
        from_update = []
        if recorded:
            def input_backward(grad: np.ndarray) -> None:
                # The update reads h twice, h + (c - h): its ``- h`` term
                # comes back here, added (as a subtraction) to what the
                # combine sends; its ``h +`` term is the handed-down
                # buffer.
                own = grad[:, :width]
                if from_update:
                    own = own - from_update.pop()
                state._accumulate_rows(parents, own)
                state._accumulate_rows(*_round_sums(
                    grad[:, width:],
                    reverse() if callable(reverse) else reverse, len(data)))

            level_input = _record(out, recorded, input_backward)
        else:
            level_input = out
        combined = combine(level_input)
        if combined.shape != hidden.shape:
            raise ValueError(f"combined rows {combined.shape} != parent "
                             f"rows {hidden.shape}")
        updated = _data(combined) - hidden
        updated += hidden
        data[parents] = updated
        recorded = _tape(state, combined, level_input)
        if not recorded:
            return

        def backward(grad: np.ndarray) -> None:
            rows = grad.take(parents, axis=0)
            if _needs_grad(combined):
                combined._accumulate(rows)
            if _needs_grad(level_input):
                from_update.append(rows)
            if _needs_grad(state):
                # By reference: nothing reads this node's gradient
                # again, the state below continues in it.
                if state.grad is None:
                    state.grad = grad
                else:
                    state.grad += grad

        self._current = _record(data, recorded, backward)

    def hand_over(self) -> Tensor | np.ndarray:
        """End the pass: the state as an ordinary value (no copy)."""
        state = self._live()
        self._current = None
        return state
