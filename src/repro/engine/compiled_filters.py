"""Compiled filter kernels: a scan's conjunction, ordered and narrowed.

:func:`repro.engine.expressions.predicate_mask` evaluates one predicate
over a whole column, and the interpreted conjunction evaluates every
predicate that way, in query order.  What the compiled path gives a
*single* evaluation is what pays: predicates ordered by selectivity
rank, adaptive narrowing (later predicates read surviving rows only;
``benchmarks/test_perf_microbench.py`` counts the compared elements
and holds them to a quarter of the interpreted walk's) and literals
brought to the column's domain once (an int column is compared as
ints, an IN list is sorted and deduplicated ahead of its one
``searchsorted``).  Reuse is *not* what pays: a workload runner's
executor meets each scan once, so the cache below reads
``engine.filter_cache_hit_rate`` 0.014 on the bench's
``collect_corpus`` and compilation is paid per evaluation (11–13 ms of
a ~405 ms pass; ROADMAP ride-along "Filters compiled for a single
use").

This module is the compile step:

* :func:`compile_predicate` specializes one predicate at compile time —
  the operator dispatch happens *here*, producing a closure over the
  literal (IN lists are pre-sorted and deduplicated so evaluation is a
  single ``searchsorted``; BETWEEN is one fused range check) — and
  records a static selectivity rank;
* :class:`CompiledFilter` orders a conjunction's predicates by that
  rank (most selective first) and evaluates them by **adaptive
  narrowing**: full-column masks are ANDed in place while survivors
  are plentiful, the evaluation switches to gathering only surviving
  rows once they are scarce, and an empty survivor set short-circuits
  the rest;
* :class:`CompiledFilterCache` is a small LRU the executor keys by the
  scan's ``(alias, filters, projection)`` tuple, so an executor that
  does meet a scan again (repeated executions of one plan) pays
  compilation once.

Every kernel is **bit-identical** to the interpreted
``predicate_mask`` / ``conjunction_mask`` path: reordering and early
exit are sound because predicate masks are evaluated under SQL
three-valued logic independently (a NULL satisfies nothing) and AND is
commutative; the property suite in
``tests/engine/test_compiled_filters.py`` pins the equivalence across
operators, dtypes, NULL masks, empty relations and contradictions.
The executor keeps the interpreted evaluator behind
``compile_filters=False`` as the reference oracle.

No import of :mod:`repro.engine.executor` here (it imports the engine
package's expression helpers): compiled filters work on raw column
accessors, which the executor's one scan path points at the base
arrays — whole for a sequential scan, behind row ids for an index
scan's residual filters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import ExecutionError
from repro.sql.ast import ComparisonOperator, Predicate
from repro.util import LRUCache

__all__ = [
    "CompiledFilter",
    "CompiledFilterCache",
    "CompiledPredicate",
    "compile_filter",
    "compile_predicate",
]

#: Static selectivity rank per operator: equality chains are assumed
#: most selective, inequality least.  Only the *order* matters — within
#: a rank the original predicate order is kept (stable sort), so the
#: evaluation order is deterministic.
_SELECTIVITY_RANK = {
    ComparisonOperator.EQ: 0,
    ComparisonOperator.IN: 1,
    ComparisonOperator.BETWEEN: 2,
    ComparisonOperator.LT: 3,
    ComparisonOperator.LEQ: 3,
    ComparisonOperator.GT: 3,
    ComparisonOperator.GEQ: 3,
    ComparisonOperator.NEQ: 4,
}


@dataclass(frozen=True)
class CompiledPredicate:
    """One predicate specialized into a reusable mask kernel.

    ``kernel`` maps a (possibly already narrowed) value array to the
    boolean satisfaction mask — NULL handling stays with the caller
    because the NULL mask is a property of the column, not the
    predicate.
    """

    column: str
    kernel: Callable[[np.ndarray], np.ndarray]
    rank: int
    source: Predicate


#: Integer-valued float literals below this are exact in float64, so an
#: integer column may compare against them in the *int* domain without
#: the per-evaluation promotion of the whole column to float64.  The
#: equivalence is exact: float64 rounding of int64 is monotonic and
#: injective below 2**53, so ``v <op> float(c)`` and ``v <op> c`` agree
#: for every int64 ``v`` and integer ``|c| < 2**53``.
_EXACT_INT_BOUND = 2 ** 53


def _int_literal(value) -> int | None:
    """``int(value)`` when the literal is an exactly-representable
    integer (the workload generators emit float literals even for
    integer columns), else None."""
    try:
        as_float = float(value)
    except (TypeError, ValueError):
        return None
    if as_float.is_integer() and abs(as_float) < _EXACT_INT_BOUND:
        return int(as_float)
    return None


def _typed_literal(int_value, value, values: np.ndarray):
    """Pick the int-domain literal for integer columns, avoiding a
    full-column promotion to float64 on every evaluation."""
    if int_value is not None and values.dtype.kind in "iu":
        return int_value
    return value


def compile_predicate(predicate: Predicate) -> CompiledPredicate:
    """Specialize ``predicate`` once: dispatch on the operator at
    compile time and close over the prepared literal."""
    operator = predicate.operator
    value = predicate.value
    int_value = _int_literal(value) \
        if operator is not ComparisonOperator.BETWEEN \
        and operator is not ComparisonOperator.IN else None
    if operator is ComparisonOperator.EQ:
        kernel = lambda values: values == _typed_literal(  # noqa: E731
            int_value, value, values)
    elif operator is ComparisonOperator.NEQ:
        kernel = lambda values: values != _typed_literal(  # noqa: E731
            int_value, value, values)
    elif operator is ComparisonOperator.LT:
        kernel = lambda values: values < _typed_literal(  # noqa: E731
            int_value, value, values)
    elif operator is ComparisonOperator.LEQ:
        kernel = lambda values: values <= _typed_literal(  # noqa: E731
            int_value, value, values)
    elif operator is ComparisonOperator.GT:
        kernel = lambda values: values > _typed_literal(  # noqa: E731
            int_value, value, values)
    elif operator is ComparisonOperator.GEQ:
        kernel = lambda values: values >= _typed_literal(  # noqa: E731
            int_value, value, values)
    elif operator is ComparisonOperator.BETWEEN:
        low, high = value
        int_low, int_high = _int_literal(low), _int_literal(high)
        exact_ints = int_low is not None and int_high is not None

        def kernel(values: np.ndarray) -> np.ndarray:
            # One fused range check (no intermediate mask pair kept),
            # in the int domain when both bounds allow it.
            if exact_ints and values.dtype.kind in "iu":
                return (values >= int_low) & (values <= int_high)
            return (values >= low) & (values <= high)
    elif operator is ComparisonOperator.IN:
        # Sort + dedup once at compile time; prepare an int-domain
        # candidate array when every candidate is an exact integer
        # (avoids promoting the whole column per candidate).  Small
        # candidate lists evaluate as an unrolled equality chain (a
        # handful of vectorized compares beats both a per-element
        # binary search and ``np.isin``'s table path); large lists use
        # a single searchsorted against the sorted unique candidates.
        # All variants match the interpreted
        # ``np.isin(values, value)`` bit-for-bit (incl. NaN
        # candidates: NaN == NaN is False under IEEE compare either
        # way; and exact-int candidates match exactly the same rows
        # as their float forms, see ``_EXACT_INT_BOUND``).
        candidates = np.unique(np.asarray(value))
        if len(candidates) == 0:
            raise ExecutionError("IN predicate with an empty candidate list")
        int_forms = [_int_literal(candidate) for candidate in candidates]
        int_candidates = (np.asarray(int_forms, dtype=np.int64)
                          if all(form is not None for form in int_forms)
                          else None)
        if len(candidates) <= 16:
            def kernel(values: np.ndarray) -> np.ndarray:
                table = (int_candidates
                         if int_candidates is not None
                         and values.dtype.kind in "iu" else candidates)
                mask = values == table[0]
                for candidate in table[1:]:
                    mask |= values == candidate
                return mask
        else:
            last = len(candidates) - 1

            def kernel(values: np.ndarray) -> np.ndarray:
                table = (int_candidates
                         if int_candidates is not None
                         and values.dtype.kind in "iu" else candidates)
                positions = np.searchsorted(table, values, side="left")
                return table[np.minimum(positions, last)] == values
    else:  # pragma: no cover - enum is exhaustive
        raise ExecutionError(f"unsupported operator {operator}")
    return CompiledPredicate(
        column=predicate.column.column,
        kernel=kernel,
        rank=_SELECTIVITY_RANK[operator],
        source=predicate,
    )


class CompiledFilter:
    """A scan's filter conjunction, compiled once and reusable forever.

    Predicates are evaluated most-selective-first (static rank, stable
    within a rank) with adaptive narrowing: while survivors are dense,
    predicates stay full-column boolean masks ANDed in place (a
    sequential compare is cheaper per row than a gather); once the
    surviving fraction drops below a quarter, evaluation switches to
    the position domain and later predicates only ever touch surviving
    rows.  The loop exits as soon as the survivor set is empty.
    Because each predicate's mask is independent of evaluation order
    and AND commutes, the surviving row set is identical to the
    interpreted all-masks-then-AND path either way.
    """

    def __init__(self, filters: tuple[Predicate, ...]):
        compiled = [compile_predicate(predicate) for predicate in filters]
        order = sorted(range(len(compiled)), key=lambda i: compiled[i].rank)
        self.predicates: tuple[CompiledPredicate, ...] = tuple(
            compiled[i] for i in order)
        self.source: tuple[Predicate, ...] = tuple(filters)

    def keep_positions(self,
                       values_of: Callable[[str], np.ndarray],
                       null_mask_of: Callable[[str], np.ndarray | None],
                       num_rows: int) -> np.ndarray:
        """Ascending positions of the rows satisfying every predicate.

        ``values_of`` / ``null_mask_of`` map an *unqualified* column
        name to the column's ``num_rows`` candidate values / their NULL
        mask (or None).
        """
        positions: np.ndarray | None = None
        dense: np.ndarray | None = None
        for predicate in self.predicates:
            values = values_of(predicate.column)
            nulls = null_mask_of(predicate.column)
            if positions is not None:
                # Narrow domain: only survivors are ever touched.
                values = values[positions]
                if nulls is not None:
                    nulls = nulls[positions]
            mask = predicate.kernel(values)
            if nulls is not None:
                mask &= ~nulls
            if positions is not None:
                positions = positions[mask]
            else:
                # Dense domain: full-column boolean masks, ANDed in
                # place, until the survivors are scarce enough that
                # gathering them beats another full-column pass (a
                # gather + compare costs roughly 3-4x per element what
                # a sequential compare does).
                if dense is None:
                    dense = mask
                else:
                    dense &= mask
                survivors = np.count_nonzero(dense)
                if survivors == 0:
                    return np.empty(0, dtype=np.int64)
                if survivors * 4 <= len(dense):
                    positions = np.flatnonzero(dense)
            if positions is not None and len(positions) == 0:
                break
        if positions is not None:
            return positions
        if dense is None:  # empty conjunction keeps everything
            return np.arange(num_rows, dtype=np.int64)
        return np.flatnonzero(dense)


def compile_filter(filters: tuple[Predicate, ...]) -> CompiledFilter:
    """Compile a conjunction of predicates into one fused kernel."""
    return CompiledFilter(filters)


def _literal_types(value) -> type | tuple[type, ...]:
    """The type of a scalar literal, or of each of a tuple's."""
    if isinstance(value, tuple):
        return tuple(map(type, value))
    return type(value)


class CompiledFilterCache(LRUCache):
    """LRU of compiled filters, keyed by the scan that owns them.

    The executor keys entries by ``(alias, filters, projection)`` (a
    sequential scan) or ``(alias, residual_filters)`` (an index scan) —
    the plan-node identity under which :class:`CompiledFilter` is valid —
    so the workload runner's repeated executions of one plan (and
    structurally identical scans across plans of the same query) reuse
    a single compiled object.  Predicates are immutable (frozen
    dataclasses), which is what makes the key hashable and sharing
    sound.  The types of the literals join the key: ``2**60`` and
    ``2.0**60`` compare and hash equal, but over an ``int64`` column one
    compares exactly and the other in ``float64``.
    """

    def __init__(self, max_entries: int = 256):
        if max_entries <= 0:
            raise ExecutionError(
                f"max_entries must be positive, got {max_entries}")
        super().__init__(max_entries)

    def get_or_compile(self, key: tuple,
                       filters: tuple[Predicate, ...]) -> CompiledFilter:
        key = (key, tuple(_literal_types(p.value) for p in filters))
        entry = self.get(key)
        if entry is None:
            entry = CompiledFilter(filters)
            self.put(key, entry)
        return entry
