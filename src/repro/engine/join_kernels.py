"""Vectorized join-matching kernels, one per join operator.

Every kernel shares one contract: given the key arrays of the two join
inputs it returns all matching ``(left_row, right_row)`` index pairs,
ordered by left row index and — within one left row — by the right
rows' original order.  That ordering is exactly what the historical
sort-based kernel produced, so every kernel is a drop-in replacement
whose output is row-identical to the others.

Two algorithms are provided, matching the physical operators:

* :func:`hash_join_match` — build/probe over a table of the *distinct*
  build keys, in one of two layouts chosen from the keys alone:

  - **direct**, for integer keys whose span ``max - min + 1`` is at
    most ``max(4 n, 2**20)`` for ``n`` build rows: an ``int32`` array of
    ``span + 1`` slots indexed by ``key - min``, -1 for a key the table
    does not hold, the last entry the -1 every key outside the span
    reads.  Build: one scatter when the keys are distinct, else one
    stable sort groups the rows by key (numpy's O(n) radix sort when
    the span fits 16 bits) and the slots follow ascending key order.
    Probe: ``min(key - min, span)`` in ``uint64`` — exact for every
    ``int64``, since the subtraction modulo 2**64 puts exactly the
    span's keys below ``span`` — one gather, no verify.  At the 2**20
    floor one table is at most 4 MiB, so a full ``BuildSideCache(64)``
    could hold 256 MiB of them; no scale in this repository comes near.
  - **sorted**, for float keys and wider spans: the distinct keys'
    canonical ``int64`` views in ascending order, built by the same
    grouping sort.  Probe: one ``np.searchsorted``, clamped to the last
    slot, and one equality check on the key it lands on.

  An empty build has no layout: every probe misses.
  :meth:`JoinHashTable.match` returns the matched probe rows and their
  slots; then the matched rows, and only they, are expanded into their
  runs of build rows (:meth:`JoinHashTable.probe`); an aggregate that
  only folds the join stops at ``match`` and weighs rows by their runs
  instead.  No Python-level row loops.
* :func:`block_nested_loop_match` — compares blocks of the outer side
  against the whole inner side with a broadcast equality, bounding the
  working set to roughly ``_BLOCK_CELLS`` comparison cells; an input
  too large for that falls back to :func:`hash_join_match`.

Each join handler of :class:`~repro.engine.executor.Executor` calls its
operator's kernel by name (``_nested_loop`` →
:func:`block_nested_loop_match`); a hash join's inputs build their
table through :func:`hash_join_table`, the first half of
:func:`hash_join_match`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.db.index import expand_runs
from repro.errors import ExecutionError

__all__ = [
    "JoinHashTable",
    "block_nested_loop_match",
    "hash_join_match",
    "hash_join_table",
]

#: A build of ``n`` integer keys gets the direct layout when its keys
#: span at most ``max(_DIRECT_SPAN_PER_KEY * n, _DIRECT_MIN_SPAN)``
#: values: an ``int32`` slot per value, so at most 16 bytes a build row
#: or 4 MiB.
_DIRECT_SPAN_PER_KEY = 4
_DIRECT_MIN_SPAN = 1 << 20

#: Upper bound on comparison cells materialized per nested-loop block.
_BLOCK_CELLS = 1 << 22


def _empty_pairs() -> tuple[np.ndarray, np.ndarray]:
    return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)


def _canonical_int_view(keys: np.ndarray) -> np.ndarray:
    """Map keys to an int64 array usable for ordering and bit equality.

    Floats are normalized so ``-0.0`` and ``0.0`` share one bit pattern
    (they compare equal, so they must find the same slot).  Raises
    :class:`ExecutionError` for a dtype without a canonical integer
    view; ``TableData`` stores only ``int64`` and ``float64`` columns.
    """
    if keys.dtype == np.int64:
        return keys
    if keys.dtype == np.float64:
        return (keys + 0.0).view(np.int64)
    kind = keys.dtype.kind
    if kind in "iub":
        return keys.astype(np.int64)
    if kind == "f":
        return (keys.astype(np.float64) + 0.0).view(np.int64)
    raise ExecutionError(
        f"join keys of dtype {keys.dtype} have no integer view to join on")


def _narrowed(canonical: np.ndarray) -> np.ndarray:
    """Keys that sort like ``canonical``: shifted to ``uint16`` when
    their span fits, where numpy's stable sort is an O(n) radix sort."""
    if len(canonical) == 0:
        return canonical
    low = int(canonical.min())
    if int(canonical.max()) - low < 1 << 16:   # Python ints: no overflow
        return (canonical - low).astype(np.uint16)
    return canonical


def _grouped(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows grouped by key: ``(order, keys[order], run starts)``.  Stable,
    because a key's build rows come out of a probe in their original
    order, and an aggregate's groups list their rows in input order."""
    order = np.argsort(_narrowed(keys), kind="stable")
    grouped = keys[order]
    starts_run = np.ones(len(keys), dtype=bool)
    np.not_equal(grouped[1:], grouped[:-1], out=starts_run[1:])
    return order, grouped, np.flatnonzero(starts_run)


@dataclass
class JoinHashTable:
    """A built (and reusable) join table over one build-side key column.

    The table is over the *distinct* build keys.  Each has a slot, and a
    slot names the run of build rows holding its key (in their original
    order).  Slots follow ascending key order, and a probe key finds its
    slot through one of two layouts:

    * **direct** — integer keys whose span ``max - min + 1`` is at most
      ``max(_DIRECT_SPAN_PER_KEY * n, _DIRECT_MIN_SPAN)`` for ``n``
      build rows: ``_slots[key - min]`` is the key's slot, -1 when the
      table does not hold it, and the last entry is the -1 every key
      outside the span reads.
    * **sorted** — float keys and wider spans: ``_distinct[slot]`` is
      the slot's canonical key, ascending, and a binary search finds it.

    An empty build has neither.  The table is immutable once built; a
    single build can serve many probes — the executor's build-side
    cache reuses it across queries that share the same build subtree.
    """

    num_rows: int
    key_dtype: np.dtype         # dtype the build keys had (probe contract)
    #: direct: ``key - min`` -> slot (``int32``), -1 = no such key.
    _slots: np.ndarray | None
    #: The direct layout's smallest key as ``uint64``.
    _low: np.uint64 | None
    #: sorted: slot -> canonical int64 key, ascending.
    _distinct: np.ndarray | None
    #: Build rows grouped by key; ``None`` when slot i is build row i.
    _rows: np.ndarray | None
    #: slot -> its run in ``_rows``; ``None`` when every run has length
    #: one (all build keys distinct) and slot i is ``_rows[i]``.
    _run_starts: np.ndarray | None
    _run_counts: np.ndarray | None

    @classmethod
    def build(cls, keys: np.ndarray) -> "JoinHashTable":
        """Build the table: direct over a narrow integer span, else
        sorted."""
        canonical = _canonical_int_view(keys)
        n = len(canonical)
        if n == 0:
            return cls(0, keys.dtype, None, None, None, None, None, None)
        if keys.dtype.kind != "f":
            low = int(canonical.min())
            span = int(canonical.max()) - low + 1  # Python ints: no overflow
            if span <= max(_DIRECT_SPAN_PER_KEY * n, _DIRECT_MIN_SPAN):
                return cls._build_direct(keys.dtype, canonical - low, low,
                                         span)
        rows, grouped, starts = _grouped(canonical)
        if len(starts) == n:    # all distinct: slot i is build row rows[i]
            return cls(n, keys.dtype, None, None, grouped, rows, None, None)
        return cls(n, keys.dtype, None, None, grouped[starts], rows, starts,
                   np.diff(starts, append=n))

    @classmethod
    def _build_direct(cls, dtype: np.dtype, offsets: np.ndarray, low: int,
                      span: int) -> "JoinHashTable":
        """The direct layout over ``offsets``, the keys minus ``low``
        (each in ``[0, span)``)."""
        n = len(offsets)
        slots = np.full(span + 1, -1, dtype=np.int32)
        rows = starts = counts = None
        # All keys distinct (the usual PK build side): every row its own
        # slot, one scatter and no sort.  More rows than values cannot be.
        distinct = n <= span
        if distinct:
            positions = np.arange(n, dtype=np.int32)
            slots[offsets] = positions
            distinct = np.array_equal(slots[offsets], positions)
        if not distinct:
            # Duplicates: a key's slot in key order, over its run of
            # rows.  Every entry the scatter wrote is written again.
            rows, grouped, starts = _grouped(offsets)
            counts = np.diff(starts, append=n)
            slots[grouped[starts]] = np.arange(len(starts), dtype=np.int32)
        return cls(n, dtype, slots, np.uint64(low % (1 << 64)), None, rows,
                   starts, counts)

    def accepts(self, dtype: np.dtype) -> bool:
        """Whether probe keys of ``dtype`` can use this table losslessly."""
        try:
            return bool(np.result_type(self.key_dtype, dtype)
                        == self.key_dtype)
        except TypeError:
            return False

    def match(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Match probe keys without expanding: ``(probe_rows, slots)``.

        ``probe_rows`` are the probe rows whose key the table holds, in
        ascending order, and ``slots[i]`` is the slot of that key; its
        run of build rows is what :meth:`probe` expands the row into.
        """
        if self.num_rows == 0 or len(keys) == 0:
            return _empty_pairs()
        if keys.dtype != self.key_dtype:
            # Equality must be evaluated in one numeric domain (e.g. an
            # int probe against a float build side): promote the probe
            # keys to the build dtype when lossless, bail otherwise.
            if not self.accepts(keys.dtype):
                raise ExecutionError(
                    f"probe keys of dtype {keys.dtype} are incompatible "
                    f"with a hash table built on {self.key_dtype}"
                )
            keys = keys.astype(self.key_dtype)
        canonical = _canonical_int_view(keys)
        if self._low is not None:
            # Direct: ``key - min`` modulo 2**64 puts exactly the span's
            # keys on [0, span) and every other key at or past ``span``,
            # which the clamp sends to the last entry, -1.
            offsets = canonical.view(np.uint64) - self._low
            np.minimum(offsets, np.uint64(len(self._slots) - 1), out=offsets)
            slots = self._slots[offsets.view(np.int64)]
            probe_rows = np.flatnonzero(slots >= 0)
            return probe_rows, slots[probe_rows].astype(np.int64)
        # Sorted: the first distinct key not below the probe key, the
        # last one for a key past them all; the row matched if it is its
        # own key.
        slots = np.searchsorted(self._distinct, canonical)
        np.minimum(slots, len(self._distinct) - 1, out=slots)
        probe_rows = np.flatnonzero(self._distinct[slots] == canonical)
        return probe_rows, slots[probe_rows]

    def probe(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Match probe keys, returning ``(probe_rows, build_rows)``."""
        probe_rows, slots = self.match(keys)
        # Expand: matches only, and only where a run can exceed one row.
        if self._run_counts is None:
            return probe_rows, (slots if self._rows is None
                                else self._rows[slots])
        matches, entries = expand_runs(self._run_starts[slots],
                                       self._run_counts[slots])
        return probe_rows[matches], self._rows[entries]

    def run_lengths(self, slots: np.ndarray) -> np.ndarray | None:
        """How many build rows each slot's run holds; ``None`` when
        every run is one row."""
        return None if self._run_counts is None else self._run_counts[slots]

    def matched_build_rows(self, slots: np.ndarray
                           ) -> tuple[np.ndarray, np.ndarray]:
        """``(build_rows, matches)``: every build row some probe row of
        ``slots`` (as :meth:`match` returns them) reaches, and how many
        probe rows reach it — its multiplicity in :meth:`probe`'s pairs,
        found without expanding them."""
        num_slots = (self.num_rows if self._run_counts is None
                     else len(self._run_counts))
        per_slot = np.bincount(slots, minlength=num_slots)
        if self._run_counts is not None:
            # A slot's run is contiguous in ``_rows``: mark where each
            # run starts and ends, and a running sum spreads the slot's
            # count over its entries.
            spread = np.zeros(self.num_rows + 1, dtype=np.int64)
            spread[self._run_starts] = per_slot
            spread[self._run_starts + self._run_counts] -= per_slot
            per_slot = np.cumsum(spread[:-1])
        reached = np.flatnonzero(per_slot)
        return (reached if self._rows is None else self._rows[reached],
                per_slot[reached])


def hash_join_table(probe_keys: np.ndarray, build_keys: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray, JoinHashTable]:
    """A hash join's build: ``(probe_keys, build_keys, table)``.

    Mixed-dtype keys (e.g. int FK vs float PK) compare numerically, so
    both sides are promoted to their common dtype first and the table's
    bit equality agrees.
    """
    if probe_keys.dtype != build_keys.dtype:
        common = np.result_type(probe_keys.dtype, build_keys.dtype)
        probe_keys = probe_keys.astype(common)
        build_keys = build_keys.astype(common)
    return probe_keys, build_keys, JoinHashTable.build(build_keys)


def hash_join_match(probe_keys: np.ndarray,
                    build_keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hash join: build a table over ``build_keys``, probe with the left.

    Returns ``(probe_rows, build_rows)``: every pair of equal keys,
    ordered by probe row, then by build row.
    """
    probe_keys, _, table = hash_join_table(probe_keys, build_keys)
    return table.probe(probe_keys)


def block_nested_loop_match(outer_keys: np.ndarray,
                            inner_keys: np.ndarray
                            ) -> tuple[np.ndarray, np.ndarray]:
    """Block nested-loop join: broadcast-compare outer blocks vs inner.

    Each block materializes at most ``_BLOCK_CELLS`` comparison cells,
    the vectorized analogue of a block-at-a-time tuple loop.  The
    planner only chooses a plain nested loop for small inputs; for
    degenerate plans whose comparison matrix would be enormous the
    kernel falls back to the (asymptotically better) hash kernel rather
    than grinding through O(n*m) work.
    """
    n, m = len(outer_keys), len(inner_keys)
    if n == 0 or m == 0:
        return _empty_pairs()
    if n * m > 64 * _BLOCK_CELLS:
        return hash_join_match(outer_keys, inner_keys)
    block = max(1, _BLOCK_CELLS // m)
    outer_parts: list[np.ndarray] = []
    inner_parts: list[np.ndarray] = []
    for start in range(0, n, block):
        # Raw == follows numpy's numeric promotion, exactly the
        # comparison the hash kernel's common dtype makes.
        hits = outer_keys[start:start + block, None] == inner_keys[None, :]
        block_outer, block_inner = np.nonzero(hits)
        outer_parts.append(block_outer + start)
        inner_parts.append(block_inner)
    return (np.concatenate(outer_parts).astype(np.int64),
            np.concatenate(inner_parts).astype(np.int64))

