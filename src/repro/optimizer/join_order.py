"""Dynamic-programming join enumeration (System-R / dpsize style).

Works on connected acyclic join graphs (the workload space of the
paper).  Subsets are represented as bitmasks over the query's table
aliases; for every connected subset the enumerator keeps the cheapest
subplan and tries all connected splits.
"""

from __future__ import annotations

from typing import Callable, Iterator

from repro.errors import OptimizerError
from repro.sql.ast import Query

__all__ = ["enumerate_join_orders", "connected_subsets"]


def _alias_bits(query: Query) -> dict[str, int]:
    return {alias: 1 << i for i, alias in enumerate(query.table_names)}


def _adjacency(query: Query, bits: dict[str, int]) -> dict[int, int]:
    """Adjacency as bitmask: for each single-alias bit, its neighbour bits."""
    neighbours: dict[int, int] = {bit: 0 for bit in bits.values()}
    for join in query.joins:
        left = bits[join.left.table]
        right = bits[join.right.table]
        neighbours[left] |= right
        neighbours[right] |= left
    return neighbours


def _is_connected(mask: int, neighbours: dict[int, int]) -> bool:
    if mask == 0:
        return False
    start = mask & -mask
    frontier = start
    seen = start
    while frontier:
        bit = frontier & -frontier
        frontier &= frontier - 1
        reachable = neighbours[bit] & mask & ~seen
        seen |= reachable
        frontier |= reachable
    return seen == mask


def connected_subsets(query: Query) -> list[frozenset[str]]:
    """All connected subsets of the query's join graph (for tests/ablation)."""
    bits = _alias_bits(query)
    neighbours = _adjacency(query, bits)
    aliases = query.table_names
    found = []
    for mask in range(1, 1 << len(aliases)):
        if _is_connected(mask, neighbours):
            found.append(frozenset(
                alias for alias, bit in bits.items() if mask & bit
            ))
    return found


def _proper_submasks(mask: int) -> Iterator[int]:
    """All non-empty proper submasks of ``mask``."""
    sub = (mask - 1) & mask
    while sub:
        yield sub
        sub = (sub - 1) & mask


def enumerate_join_orders(
    query: Query,
    leaf_factory: Callable[[str], object],
    combine: Callable[[object, object], object | None],
    better: Callable[[object, object], bool],
) -> object:
    """Run the DP enumeration.

    Parameters
    ----------
    leaf_factory:
        ``alias -> subplan`` for single tables.
    combine:
        ``(left_subplan, right_subplan) -> subplan | None``; None means
        the split is not joinable.
    better:
        ``(a, b) -> bool``, True if ``a`` is preferable to ``b``.

    Returns the best subplan covering all tables.
    """
    bits = _alias_bits(query)
    neighbours = _adjacency(query, bits)

    table: dict[int, object] = {}
    for alias, bit in bits.items():
        table[bit] = leaf_factory(alias)

    full = (1 << len(bits)) - 1
    order = sorted(
        (mask for mask in range(1, full + 1)
         if _is_connected(mask, neighbours)),
        key=lambda m: bin(m).count("1"),
    )
    for mask in order:
        if mask in table:
            continue
        best = None
        for left_mask in _proper_submasks(mask):
            right_mask = mask & ~left_mask
            if left_mask > right_mask:
                continue  # handle each unordered split once; combine tries both
            if left_mask not in table or right_mask not in table:
                continue
            candidate = combine(table[left_mask], table[right_mask])
            if candidate is not None and (best is None or better(candidate, best)):
                best = candidate
        if best is not None:
            table[mask] = best

    if full not in table:
        raise OptimizerError(
            "join enumeration failed: query join graph is not connected"
        )
    return table[full]
