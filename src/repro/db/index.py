"""B-tree index metadata.

Indexes here are *metadata plus a sorted permutation*: enough for the
optimizer to decide on index scans, for the executor to answer range
lookups efficiently, and for the runtime simulator to charge realistic
costs (height traversal + leaf scan + heap fetches).

A hypothetical index (``hypothetical=True``) has no permutation built —
it exists only for what-if planning (Section 4.1 of the paper), exactly
like the virtual indexes of Postgres' HypoPG extension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.db.table_data import TableData
from repro.db.types import PAGE_USABLE_BYTES
from repro.errors import SchemaError

__all__ = ["Index", "expand_runs"]

#: Per index entry: key bytes + 8-byte tuple pointer + item header.
_INDEX_ENTRY_OVERHEAD = 16


def expand_runs(starts: np.ndarray, counts: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """Expand runs ``[starts[i], starts[i] + counts[i])`` entry by entry.

    Returns ``(owner_positions, entry_positions)``, one pair per entry,
    run after run: the position ``i`` of the run that owns the entry and
    the position of the entry itself.  The one run expansion behind
    :meth:`Index.lookup_many` and every join kernel.
    """
    # Entry j of run i sits at starts[i] + j; numbering all entries
    # 0..total-1, j is the entry number minus the number of entries in
    # the runs before i.
    entries_before = np.cumsum(counts) - counts
    entries = np.repeat(starts - entries_before, counts)
    entries += np.arange(len(entries))
    return np.repeat(np.arange(len(counts)), counts), entries


@dataclass
class Index:
    """A (possibly hypothetical) B-tree index over one column.

    Attributes
    ----------
    name:
        Unique index name.
    table_name / column_name:
        Target of the index.
    unique:
        Declared uniqueness (true for primary keys).
    hypothetical:
        If True, the index exists only for what-if planning and has no
        built permutation.
    """

    name: str
    table_name: str
    column_name: str
    unique: bool = False
    hypothetical: bool = False
    _sorted_order: np.ndarray | None = field(default=None, repr=False)
    _sorted_values: np.ndarray | None = field(default=None, repr=False)
    num_rows: int = 0
    key_width_bytes: int = 8

    def build(self, data: TableData) -> "Index":
        """Populate the sorted permutation from table data (in place)."""
        if data.table.name != self.table_name:
            raise SchemaError(
                f"index {self.name!r} is declared on {self.table_name!r} "
                f"but was given data for {data.table.name!r}"
            )
        column = data.table.column(self.column_name)
        values = data.column_values(self.column_name)
        order = np.argsort(values, kind="stable")
        null_mask = data.null_masks.get(self.column_name)
        if null_mask is not None:
            # A NULL satisfies no comparison, so it is no key: its stored
            # placeholder value must not be found by a lookup.
            order = order[~null_mask[order]]
        self._sorted_order = order
        self._sorted_values = values[order]
        # Sized by table rows (not keys): height, leaf pages and every
        # index cost are the same for a real and a hypothetical index.
        self.num_rows = data.num_rows
        self.key_width_bytes = column.width_bytes
        self.hypothetical = False
        return self

    @property
    def _is_built(self) -> bool:
        return self._sorted_values is not None

    # ------------------------------------------------------------------
    # Size model (identical for real and hypothetical indexes, so the
    # optimizer prices both the same way — the point of what-if planning).
    # ------------------------------------------------------------------
    def estimate_for_rows(self, num_rows: int) -> None:
        """Set size metadata for a hypothetical index over ``num_rows`` rows."""
        self.num_rows = num_rows

    @property
    def _entries_per_leaf(self) -> int:
        entry = self.key_width_bytes + _INDEX_ENTRY_OVERHEAD
        return max(1, PAGE_USABLE_BYTES // entry)

    @property
    def num_leaf_pages(self) -> int:
        if self.num_rows == 0:
            return 1
        return math.ceil(self.num_rows / self._entries_per_leaf)

    @property
    def height(self) -> int:
        """B-tree height (root to leaf, counting levels above the leaves)."""
        fanout = max(2, self._entries_per_leaf)
        pages = self.num_leaf_pages
        height = 1
        while pages > 1:
            pages = math.ceil(pages / fanout)
            height += 1
        return height

    # ------------------------------------------------------------------
    # Lookup (used by the executor for real indexes)
    # ------------------------------------------------------------------
    def range_lookup(self, low: float | None, high: float | None,
                     low_inclusive: bool = True,
                     high_inclusive: bool = True) -> np.ndarray:
        """Row ids whose key falls into the given range, in key order."""
        if not self._is_built:
            raise SchemaError(f"index {self.name!r} is hypothetical; cannot look up")
        values = self._sorted_values
        start = 0
        stop = len(values)
        if low is not None:
            side = "left" if low_inclusive else "right"
            start = int(np.searchsorted(values, low, side=side))
        if high is not None:
            side = "right" if high_inclusive else "left"
            stop = int(np.searchsorted(values, high, side=side))
        return self._sorted_order[start:stop]

    def lookup_many(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Batched equality lookup: ``(key_positions, row_ids)``.

        One pair per (key, row holding that key), ordered by key
        position and, within a key, in index order — what concatenating
        ``range_lookup(key, key)`` over ``keys`` would give.
        """
        if not self._is_built:
            raise SchemaError(f"index {self.name!r} is hypothetical; cannot look up")
        values = self._sorted_values
        starts = np.searchsorted(values, keys, side="left")
        counts = np.searchsorted(values, keys, side="right") - starts
        key_positions, entries = expand_runs(starts, counts)
        return key_positions, self._sorted_order[entries]
