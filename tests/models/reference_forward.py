"""Test-only reference forwards: the message passing as it was written
before the rank-round row primitives, kept as the oracle they are
tested against (here and in ``benchmarks/test_perf_microbench.py``).

``reference_hidden_states`` is ``ZeroShotNet._hidden_states`` of the
parent commit and ``reference_e2e_forward`` its copy in
``E2ENet.forward``, verbatim but for three things: ``self`` is the
network passed in, ``x.scatter_add(indices, n)`` is spelled
``_scatter_add(x, indices, n)`` — the literal ``np.zeros`` +
``np.add.at`` that method used to be, on values — and the ``Tensor``
methods and operators of that commit are spelled as the
``repro.nn.tensor`` functions that replaced them; per-operator rows are
read through ``batch.plan_op_ids``, which names each operator's node
also in a batch that shares subtrees.  Not a second forward
of the library: nothing under ``src/`` imports this.
"""

import numpy as np

from repro.featurize.graph import NODE_TYPES
from repro.nn import Tensor
from repro.nn import tensor as T


def _scatter_add(rows, indices: np.ndarray, num_rows: int) -> np.ndarray:
    rows = T._data(rows)
    data = np.zeros((num_rows,) + rows.shape[1:], dtype=np.float64)
    np.add.at(data, indices, rows)
    return data


def reference_hidden_states(net, batch) -> Tensor:
    hidden_dim = net.config.hidden_dim

    # 1. Initial hidden states, scattered into one [N, hidden] matrix.
    hidden = Tensor(np.zeros((batch.num_nodes, hidden_dim)))
    for node_type in NODE_TYPES:
        features = batch.features[node_type]
        if len(features) == 0:
            continue
        encoder = net._modules[f"encode_{node_type}"]
        encoded = encoder(Tensor(features))
        hidden = T.add(hidden, _scatter_add(
            encoded, batch.type_positions[node_type], batch.num_nodes
        ))

    # 2. Level-by-level bottom-up combine.
    for level in batch.levels:
        num_parents = len(level.parent_ids)
        child_hidden = T.index_select(hidden, level.edge_child_ids)
        child_sum = _scatter_add(child_hidden, level.edge_parent_slots,
                                 num_parents)
        parent_hidden = T.index_select(hidden, level.parent_ids)
        combined = Tensor(np.zeros((num_parents, hidden_dim)))
        for node_type, slots in level.type_slots.items():
            combine = net._modules[f"combine_{node_type}"]
            stacked = T.concat(
                [T.index_select(parent_hidden, slots),
                 T.index_select(child_sum, slots)], axis=1
            )
            combined = T.add(combined, _scatter_add(
                combine(stacked), slots, num_parents
            ))
        delta = T.sub(combined, parent_hidden)
        hidden = T.add(hidden, _scatter_add(delta, level.parent_ids,
                                            batch.num_nodes))
    return hidden


def reference_forward(net, batch) -> Tensor:
    roots = T.index_select(reference_hidden_states(net, batch), batch.roots)
    return T.reshape(net.readout(roots), -1)


def reference_forward_with_cardinalities(net, batch
                                         ) -> tuple[Tensor, Tensor]:
    hidden = reference_hidden_states(net, batch)
    runtime = T.reshape(net.readout(T.index_select(hidden, batch.roots)), -1)
    ops = T.index_select(hidden, batch.plan_op_ids)
    cardinalities = T.reshape(net.card_readout(ops), -1)
    return runtime, cardinalities


def reference_e2e_forward(net, batch) -> Tensor:
    hidden = net.encoder(Tensor(batch.features["plan_op"]))
    for level in batch.levels:
        # The batch lists a level's edges as rank rounds; listed round
        # after round, every parent's children keep their edge order,
        # which is all np.add.at depends on.
        child_sum = _scatter_add(
            T.index_select(hidden, level.edge_child_ids),
            level.edge_parent_slots, len(level.parent_ids)
        )
        parent_hidden = T.index_select(hidden, level.parent_ids)
        combined = net.combine(
            T.concat([parent_hidden, child_sum], axis=1)
        )
        delta = T.sub(combined, parent_hidden)
        hidden = T.add(hidden, _scatter_add(delta, level.parent_ids,
                                            batch.num_nodes))
    return T.reshape(net.readout(T.index_select(hidden, batch.roots)), -1)
