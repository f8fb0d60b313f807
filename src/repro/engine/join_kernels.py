"""Vectorized join-matching kernels, one per join operator.

Every kernel shares one contract: given the key arrays of the two join
inputs it returns all matching ``(left_row, right_row)`` index pairs,
ordered by left row index and — within one left row — by the right
rows' original order.  That ordering is exactly what the historical
sort-based kernel produced, so every kernel is a drop-in replacement
whose output is row-identical to the others.

Two algorithms are provided, matching the physical operators:

* :func:`hash_join_match` — true build/probe hashing over the
  *distinct* build keys (multiplicative Fibonacci hash, power-of-two
  table at load factor <= 0.5).  Build: if no bucket holds two rows,
  every key is distinct and the table is one scatter, no sort at all.
  Otherwise one stable sort of the build keys groups the rows by key (a
  comparison sort, free on keys that arrive sorted, or numpy's O(n) radix
  sort when the keys span fewer than 2**16 values), the distinct keys
  are bucketed, and only if some of *them* still share a bucket are they
  made adjacent by a stable sort of their bucket ids (numpy's O(n) radix
  sort when the ids fit 16 bits, a comparison sort otherwise).  Probe,
  per row: one hash, one bucket read, one key comparison; a row goes
  another round, on the next slot, only if it missed *and* its bucket
  holds a further key (:meth:`JoinHashTable.match`).  Then the matched
  rows, and only they, are expanded into their runs of build rows
  (:meth:`JoinHashTable.probe`); an aggregate that only folds the join
  stops at ``match`` and weighs rows by their runs instead.  No
  Python-level row loops.
* :func:`block_nested_loop_match` — compares blocks of the outer side
  against the whole inner side with a broadcast equality, bounding the
  working set to roughly ``_BLOCK_CELLS`` comparison cells.

:func:`sort_merge_match` is the original sort-based kernel, kept as the
reference implementation and as the generic fallback for key dtypes the
hash kernel cannot canonicalize.

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
    "sort_merge_match",
]

#: Fibonacci multiplier for the 64-bit multiplicative hash.
_HASH_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)

#: Upper bound on comparison cells materialized per nested-loop block.
_BLOCK_CELLS = 1 << 22


def _empty_pairs() -> tuple[np.ndarray, np.ndarray]:
    return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)


def _canonical_int_view(keys: np.ndarray) -> np.ndarray | None:
    """Map keys to an int64 array usable for hashing and bit equality.

    Floats are normalized so ``-0.0`` and ``0.0`` share one bit pattern
    (they compare equal, so they must land in the same bucket).  Returns
    ``None`` for dtypes without a canonical integer view, signalling the
    caller to fall back to the sort-based kernel.
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
    return None


def _narrowed(canonical: np.ndarray) -> np.ndarray:
    """Keys that sort like ``canonical``: shifted to ``uint16`` when
    their span fits, where numpy's stable sort is an O(n) radix sort."""
    low = int(canonical.min())
    if int(canonical.max()) - low < 1 << 16:   # Python ints: no overflow
        return (canonical - low).astype(np.uint16)
    return canonical


@dataclass
class JoinHashTable:
    """A built (and reusable) hash table over one build-side key column.

    The table is over the *distinct* build keys.  Each has a slot; a
    bucket names the slot of its first key, the distinct keys that share
    a bucket sit in adjacent slots, and a slot names the run of build
    rows holding its key (in their original order).  The table is
    immutable once built; a single build can serve many probes — the
    executor's build-side cache reuses it across queries that share the
    same build subtree.
    """

    num_rows: int
    key_dtype: np.dtype         # dtype the build keys had (probe contract)
    _bucket_bits: int
    _first_slot: np.ndarray     # bucket -> slot of its first key, -1 = empty
    _distinct: np.ndarray       # slot -> canonical int64 key
    #: slot -> whether the next slot holds a further key of the same
    #: bucket; ``None`` when no bucket holds two keys.
    _shares_next: np.ndarray | None
    #: Build rows grouped by key; ``None`` when slot i is build row i.
    _rows: np.ndarray | None
    #: slot -> its run in ``_rows``; ``None`` when every run has length
    #: one (all build keys distinct) and slot i is ``_rows[i]``.
    _run_starts: np.ndarray | None
    _run_counts: np.ndarray | None

    @classmethod
    def build(cls, keys: np.ndarray) -> "JoinHashTable | None":
        """Build the table; ``None`` if the dtype is unhashable."""
        canonical = _canonical_int_view(keys)
        if canonical is None:
            return None
        n = len(canonical)
        distinct, rows, starts, counts = canonical, None, None, None
        # If no bucket collides (the usual PK build side — the Fibonacci
        # hash is collision-free on dense id ranges) every key is
        # distinct and every row its own slot: a scatter, no sort.
        bits, buckets, first_slot = cls._scatter(distinct)
        if first_slot is None:
            # Group the build rows by key; stable, because a key's rows
            # come out of a probe in their original order.
            order = np.argsort(_narrowed(canonical), kind="stable")
            grouped = canonical[order]
            starts_run = np.ones(n, dtype=bool)
            np.not_equal(grouped[1:], grouped[:-1], out=starts_run[1:])
            starts = np.flatnonzero(starts_run)
            if len(starts) == n:
                starts = None   # all distinct after all: drop the sort
            else:
                distinct, rows = grouped[starts], order
                counts = np.diff(starts, append=n)
                bits, buckets, first_slot = cls._scatter(distinct)
        shares_next = None
        if first_slot is None:
            # Distinct keys share buckets: give bucket-mates adjacent
            # slots, so a probe that misses walks on to the next slot.
            # numpy's stable sort is an O(n) radix sort for integers of
            # at most 16 bits, so bucket ids that fit are narrowed.
            by_bucket = np.argsort(
                buckets.astype(np.uint16) if bits <= 16 else buckets,
                kind="stable")
            buckets, distinct = buckets[by_bucket], distinct[by_bucket]
            if starts is None:
                rows = by_bucket
            else:
                starts, counts = starts[by_bucket], counts[by_bucket]
            first_slot = np.full(1 << bits, -1, dtype=np.int64)
            # A repeated index keeps its last write: the lowest slot.
            first_slot[buckets[::-1]] = np.arange(len(buckets))[::-1]
            shares_next = np.zeros(len(buckets), dtype=bool)
            np.equal(buckets[1:], buckets[:-1], out=shares_next[:-1])
        return cls(n, keys.dtype, bits, first_slot, distinct, shares_next,
                   rows, starts, counts)

    @classmethod
    def _scatter(cls, distinct: np.ndarray
                 ) -> tuple[int, np.ndarray, np.ndarray | None]:
        """Bucket keys at load factor <= 0.5: ``(bits, bucket ids,
        bucket -> position)``, the last ``None`` if two share a bucket."""
        bits = max(1, int(2 * len(distinct) - 1).bit_length())
        buckets = cls._bucket_ids(distinct, bits)
        positions = np.arange(len(distinct))
        first_slot = np.full(1 << bits, -1, dtype=np.int64)
        first_slot[buckets] = positions
        if not np.array_equal(first_slot[buckets], positions):
            first_slot = None
        return bits, buckets, first_slot

    @staticmethod
    def _bucket_ids(canonical: np.ndarray, bits: int) -> np.ndarray:
        hashed = canonical.view(np.uint64) * _HASH_MULTIPLIER
        hashed >>= np.uint64(64 - bits)
        return hashed.view(np.int64)    # at most 63 bits after the shift

    def accepts(self, dtype: np.dtype) -> bool:
        """Whether probe keys of ``dtype`` can use this table losslessly."""
        try:
            return bool(np.result_type(self.key_dtype, dtype)
                        == self.key_dtype)
        except TypeError:
            return False

    def match(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Verify probe keys without expanding: ``(probe_rows, slots)``.

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
        if canonical is None:
            raise ExecutionError(
                f"probe keys of dtype {keys.dtype} cannot be hashed"
            )
        # Verify: slots[r] is the one slot probe row r is looking at,
        # -1 once it has nowhere left to look.  One key comparison
        # settles a row unless it missed and its bucket holds a further
        # key; only those rows go another round, on the next slot.
        slots = self._first_slot[
            self._bucket_ids(canonical, self._bucket_bits)]
        looking = np.flatnonzero(slots >= 0)
        while len(looking):
            candidates = slots[looking]
            missed = np.flatnonzero(
                self._distinct[candidates] != canonical[looking])
            looking, candidates = looking[missed], candidates[missed]
            slots[looking] = -1
            if self._shares_next is None:
                break
            walks_on = np.flatnonzero(self._shares_next[candidates])
            looking = looking[walks_on]
            slots[looking] = candidates[walks_on] + 1
        probe_rows = np.flatnonzero(slots >= 0)
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
        per_slot = np.bincount(slots, minlength=len(self._distinct))
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


def sort_merge_match(left_keys: np.ndarray,
                     right_keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reference kernel: sort the right side, binary-search every left key.

    This is the original single-kernel implementation all joins used to
    share; it remains the generic fallback and the parity oracle the
    specialized kernels are tested against.
    """
    order = np.argsort(right_keys, kind="stable")
    sorted_right = right_keys[order]
    starts = np.searchsorted(sorted_right, left_keys, side="left")
    stops = np.searchsorted(sorted_right, left_keys, side="right")
    left_indices, right_positions = expand_runs(starts, stops - starts)
    return left_indices, order[right_positions]


def hash_join_table(probe_keys: np.ndarray, build_keys: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray, JoinHashTable | None]:
    """A hash join's build: ``(probe_keys, build_keys, table)``.

    Mixed-dtype keys (e.g. int FK vs float PK) compare numerically in
    the sort kernel, so both sides are promoted to their common dtype
    first and hashing agrees.  ``table`` is ``None`` when the keys have
    no canonical integer view; the join falls back to
    :func:`sort_merge_match` on the returned keys.
    """
    if probe_keys.dtype != build_keys.dtype:
        try:
            common = np.result_type(probe_keys.dtype, build_keys.dtype)
        except TypeError:
            return probe_keys, build_keys, None
        if common.kind not in "iuf":
            return probe_keys, build_keys, None
        probe_keys = probe_keys.astype(common)
        build_keys = build_keys.astype(common)
    return probe_keys, build_keys, JoinHashTable.build(build_keys)


def hash_join_match(probe_keys: np.ndarray,
                    build_keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hash join: build buckets over ``build_keys``, probe with the left.

    Returns ``(probe_rows, build_rows)`` — identical pairs, in identical
    order, to :func:`sort_merge_match` on the same inputs.
    """
    probe_keys, build_keys, table = hash_join_table(probe_keys, build_keys)
    if table is None:
        return sort_merge_match(probe_keys, build_keys)
    return table.probe(probe_keys)


def block_nested_loop_match(outer_keys: np.ndarray,
                            inner_keys: np.ndarray
                            ) -> tuple[np.ndarray, np.ndarray]:
    """Block nested-loop join: broadcast-compare outer blocks vs inner.

    Each block materializes at most ``_BLOCK_CELLS`` comparison cells,
    the vectorized analogue of a block-at-a-time tuple loop.  The
    planner only chooses a plain nested loop for small inputs; for
    degenerate plans whose comparison matrix would be enormous the
    kernel falls back to the (asymptotically better) sort kernel rather
    than grinding through O(n*m) work.
    """
    n, m = len(outer_keys), len(inner_keys)
    if n == 0 or m == 0:
        return _empty_pairs()
    if n * m > 64 * _BLOCK_CELLS:
        return sort_merge_match(outer_keys, inner_keys)
    block = max(1, _BLOCK_CELLS // m)
    outer_parts: list[np.ndarray] = []
    inner_parts: list[np.ndarray] = []
    for start in range(0, n, block):
        # Raw == follows numpy's numeric promotion, exactly the
        # comparison semantics the sort kernel's searchsorted uses.
        hits = outer_keys[start:start + block, None] == inner_keys[None, :]
        block_outer, block_inner = np.nonzero(hits)
        outer_parts.append(block_outer + start)
        inner_parts.append(block_inner)
    return (np.concatenate(outer_parts).astype(np.int64),
            np.concatenate(inner_parts).astype(np.int64))

