"""A small, self-contained neural-network library on top of numpy.

The paper's prototype uses PyTorch (Geometric); this environment is
offline, so ``repro.nn`` provides what the five learned models run, and
nothing else:

* :mod:`~repro.nn.tensor` — reverse-mode autograd over numpy arrays
  (broadcasting-aware).  Every op is a function of ``Tensor | ndarray``
  that returns a raw ``ndarray`` unless an operand is recording (a
  :class:`~repro.nn.tensor.Tensor` that requires grad, outside
  ``no_grad``), so an inference forward builds no ``Tensor``.  The op
  set is ``add sub mul`` (``+ - *`` on a ``Tensor``, beside ``@``),
  ``linear`` (``x @ w + b`` through an optional ``relu`` or
  ``leaky_relu``: one tape node per MLP layer), ``abs``, ``sum``,
  ``mean``, ``reshape``, ``concat``, ``index_select`` and the row
  primitives of DAG message passing (``scatter_rows``, ``gather_sum``
  over :func:`~repro.nn.tensor.rank_rounds`, and
  :class:`~repro.nn.tensor.RowState`, the one state buffer a pass
  updates in place, a level at a time: ``level`` writes the combine's
  input, runs the combine and writes the parents' new rows).  Callers reach
  the ops through the module (``from repro.nn import tensor as T``), as
  they reach the loss through :mod:`~repro.nn.functional`.
* :mod:`~repro.nn.layers` — ``MLP`` (``Linear`` layers with ``relu`` or
  ``leaky_relu`` between them, one ``linear`` op each).
* :mod:`~repro.nn.optim` — ``Adam`` and gradient clipping;
  :mod:`~repro.nn.functional` — the one loss, ``q_loss``.
* :mod:`~repro.nn.data` — mini-batch iteration helpers.
* :mod:`~repro.nn.serialize` — ``save_state`` / ``load_state`` on ``.npz``.

The rule (``tests/test_dependency_hygiene.py`` keeps it true): a name
exported here, a public ``Tensor`` / ``RowState`` method or a field of
the trainer and model configs exists only while code under ``src/repro``
outside this package, or under ``bench/``, refers to it; an op of
:mod:`~repro.nn.tensor` only while code outside that module does.  What
only this package uses (``Linear``, ``Parameter``, ``kaiming_uniform``)
is imported from its module.

Everything is deterministic given an explicit ``numpy.random.Generator``.
"""

from repro.nn import functional
from repro.nn.data import BatchIterator, train_validation_split
from repro.nn.layers import MLP
from repro.nn.module import Module
from repro.nn.optim import Adam, clip_grad_norm
from repro.nn.serialize import load_state, save_state
from repro.nn.tensor import RowState, RowSums, Tensor, no_grad, rank_rounds

__all__ = [
    "Adam",
    "BatchIterator",
    "MLP",
    "Module",
    "RowState",
    "RowSums",
    "Tensor",
    "clip_grad_norm",
    "functional",
    "load_state",
    "no_grad",
    "rank_rounds",
    "save_state",
    "train_validation_split",
]
