"""A small, self-contained neural-network library on top of numpy.

The paper's prototype uses PyTorch (Geometric); this environment is
offline, so ``repro.nn`` provides the pieces the zero-shot models need:

* :class:`~repro.nn.tensor.Tensor` — reverse-mode autograd over numpy
  arrays (broadcasting-aware), tape-optional per op, with the row
  primitives of DAG message passing (``scatter_rows``, ``gather_sum``
  over :func:`~repro.nn.tensor.rank_rounds`, and
  :class:`~repro.nn.tensor.RowState`, the one state buffer a pass
  updates in place with ``add_rows``).
* :mod:`~repro.nn.layers` — ``Linear``, ``MLP``, ``LayerNorm``,
  ``Dropout``, ``Sequential``.
* :mod:`~repro.nn.optim` — ``SGD`` and ``Adam`` with gradient clipping.
* :mod:`~repro.nn.data` — mini-batch iteration helpers.
* :mod:`~repro.nn.serialize` — ``save_state`` / ``load_state`` on ``.npz``.

Everything is deterministic given an explicit ``numpy.random.Generator``.
"""

from repro.nn import functional
from repro.nn.data import BatchIterator, train_validation_split
from repro.nn.init import kaiming_uniform, xavier_uniform, zeros
from repro.nn.layers import MLP, Dropout, LayerNorm, Linear, ReLU, Sequential
from repro.nn.module import Module, Parameter
from repro.nn.optim import SGD, Adam, clip_grad_norm
from repro.nn.schedules import ConstantSchedule, CosineSchedule, StepSchedule
from repro.nn.serialize import load_state, save_state
from repro.nn.tensor import RowState, RowSums, Tensor, no_grad, rank_rounds

__all__ = [
    "Adam",
    "BatchIterator",
    "ConstantSchedule",
    "CosineSchedule",
    "Dropout",
    "LayerNorm",
    "Linear",
    "MLP",
    "Module",
    "Parameter",
    "ReLU",
    "RowState",
    "RowSums",
    "SGD",
    "Sequential",
    "StepSchedule",
    "Tensor",
    "clip_grad_norm",
    "functional",
    "kaiming_uniform",
    "load_state",
    "no_grad",
    "rank_rounds",
    "save_state",
    "train_validation_split",
    "xavier_uniform",
    "zeros",
]
