"""A small, self-contained neural-network library on top of numpy.

The paper's prototype uses PyTorch (Geometric); this environment is
offline, so ``repro.nn`` provides what the five learned models run, and
nothing else:

* :class:`~repro.nn.tensor.Tensor` — reverse-mode autograd over numpy
  arrays (broadcasting-aware), tape-optional per op.  The op set is
  ``+ - * @``, ``abs``, ``relu``, ``leaky_relu``, ``sum``, ``mean``,
  ``reshape``, ``index_select``, ``concat`` and the row primitives of
  DAG message passing (``scatter_rows``, ``gather_sum`` over
  :func:`~repro.nn.tensor.rank_rounds`, and
  :class:`~repro.nn.tensor.RowState`, the one state buffer a pass
  updates in place with ``add_rows``).
* :mod:`~repro.nn.layers` — ``MLP`` (``Linear`` layers with ``relu`` or
  ``leaky_relu`` between them).
* :mod:`~repro.nn.optim` — ``Adam`` and gradient clipping;
  :mod:`~repro.nn.functional` — the one loss, ``q_loss``.
* :mod:`~repro.nn.data` — mini-batch iteration helpers.
* :mod:`~repro.nn.serialize` — ``save_state`` / ``load_state`` on ``.npz``.

The rule (``tests/test_dependency_hygiene.py`` keeps it true): a name
exported here, a public ``Tensor`` / ``RowState`` method or a field of
the trainer and model configs exists only while code under ``src/repro``
outside this package, or under ``bench/``, refers to it.  What only this
package uses (``Linear``, ``Sequential``, ``ReLU``, ``Parameter``,
``kaiming_uniform``) is imported from its module.

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
