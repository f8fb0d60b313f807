"""Compiled filter kernels: bit-identity with the interpreted oracle.

The compiled path reorders predicates by selectivity rank, narrows
progressively and short-circuits — none of which may change a single
surviving row.  This suite pins the equivalence against the
interpreted ``predicate_mask`` / ``conjunction_mask`` reference across
all operators, dtypes, NULL-mask presence, empty relations, and the
contradiction conjunctions the PR 7 filter-merge rule deliberately
keeps (e.g. ``x = 1 AND x = 2``).
"""

import numpy as np
import pytest

from repro.db import Database, DataType, Schema, TableData
from repro.db.schema import Column, Table
from repro.engine import Executor, execute_plan
from repro.engine.compiled_filters import (
    CompiledFilter,
    CompiledFilterCache,
    compile_filter,
    compile_predicate,
)
from repro.engine.expressions import conjunction_mask, predicate_mask
from repro.errors import ExecutionError
from repro.plans import (
    HashBuild,
    HashJoin,
    IndexScan,
    PhysicalPlan,
    PlainAggregate,
    SeqScan,
)
from repro.sql.ast import (
    AggregateFunction,
    AggregateSpec,
    ColumnRef,
    ComparisonOperator,
    JoinCondition,
    Predicate,
    Query,
    TableRef,
)

pytestmark = pytest.mark.perf

RNG = np.random.default_rng(1234)


def pred(column, op, value, table="t"):
    return Predicate(ColumnRef(table, column), op, value)


def make_columns(num_rows, dtype, with_nulls):
    """One synthetic column (+ optional NULL mask) with repeated values
    so equality predicates actually select something."""
    if dtype == np.int64:
        values = RNG.integers(-5, 15, size=num_rows).astype(np.int64)
    else:
        values = np.round(
            RNG.uniform(-5.0, 15.0, size=num_rows), 1).astype(np.float64)
    nulls = None
    if with_nulls and num_rows:
        nulls = RNG.random(num_rows) < 0.2
    return values, nulls


ALL_PREDICATES = [
    # Integer-valued float literals (what the workload generators emit)
    # exercise the compiled int-domain specialization on int64 columns.
    pred("x", ComparisonOperator.EQ, 3.0),
    pred("x", ComparisonOperator.NEQ, 3.0),
    pred("x", ComparisonOperator.LT, 7.0),
    pred("x", ComparisonOperator.LEQ, 7.0),
    pred("x", ComparisonOperator.GT, 2.0),
    pred("x", ComparisonOperator.GEQ, 2.0),
    pred("x", ComparisonOperator.BETWEEN, (1.0, 9.0)),
    pred("x", ComparisonOperator.IN, (1.0, 3.0, 5.0, 5.0, 2.0)),
    # Fractional literals force the float-domain comparison on every
    # column dtype (no exact int form exists).
    pred("x", ComparisonOperator.EQ, 2.5),
    pred("x", ComparisonOperator.LT, 6.5),
    pred("x", ComparisonOperator.BETWEEN, (1.5, 8.5)),
    pred("x", ComparisonOperator.IN, (2.5, 3.0, 7.0)),
    # A >16-candidate list compiles to the searchsorted kernel; one
    # all-integer, one mixed (mixed disables the int-domain table).
    pred("x", ComparisonOperator.IN, tuple(float(i) for i in range(-3, 15))),
    pred("x", ComparisonOperator.IN,
         (0.5,) + tuple(float(i) for i in range(-3, 14))),
]


def interpreted_keep(values, nulls, filters):
    """The oracle: all masks, AND-fold, flatnonzero."""
    masks = [predicate_mask(values, nulls, f) for f in filters]
    return np.flatnonzero(conjunction_mask(len(values), masks))


class TestPredicateKernels:
    @pytest.mark.parametrize("predicate", ALL_PREDICATES,
                             ids=lambda p: p.operator.name)
    @pytest.mark.parametrize("dtype", [np.int64, np.float64],
                             ids=["int64", "float64"])
    @pytest.mark.parametrize("with_nulls", [False, True],
                             ids=["dense", "nullable"])
    def test_single_predicate_bit_identical(self, predicate, dtype,
                                            with_nulls):
        values, nulls = make_columns(500, dtype, with_nulls)
        compiled = compile_predicate(predicate)
        mask = compiled.kernel(values)
        if nulls is not None:
            mask = mask & ~nulls
        expected = predicate_mask(values, nulls, predicate)
        assert mask.dtype == np.bool_
        np.testing.assert_array_equal(mask, expected)

    @pytest.mark.parametrize("predicate", ALL_PREDICATES,
                             ids=lambda p: p.operator.name)
    def test_empty_relation(self, predicate):
        values = np.empty(0, dtype=np.float64)
        compiled = compile_filter((predicate,))
        keep = compiled.keep_positions(lambda _: values, lambda _: None, 0)
        assert keep.shape == (0,)
        np.testing.assert_array_equal(
            keep, interpreted_keep(values, None, (predicate,)))

    def test_in_kernel_matches_isin_with_nan(self):
        """NaN candidates and NaN values: searchsorted must agree with
        np.isin (NaN == NaN is False under IEEE compare on both paths)."""
        values = np.array([1.0, np.nan, 3.0, np.nan, 5.0])
        predicate = pred("x", ComparisonOperator.IN, (np.nan, 3.0, 1.0))
        compiled = compile_predicate(predicate)
        np.testing.assert_array_equal(
            compiled.kernel(values), predicate_mask(values, None, predicate))

    def test_empty_in_list_rejected(self):
        """The AST rejects empty IN tuples at construction; the compile
        step keeps its own guard for duck-typed predicates."""
        from repro.errors import QueryError
        with pytest.raises(QueryError, match="non-empty"):
            pred("x", ComparisonOperator.IN, ())

        class FakePredicate:
            column = ColumnRef("t", "x")
            operator = ComparisonOperator.IN
            value = ()

        with pytest.raises(ExecutionError, match="empty"):
            compile_predicate(FakePredicate())


class TestConjunctions:
    @pytest.mark.parametrize("dtype", [np.int64, np.float64],
                             ids=["int64", "float64"])
    @pytest.mark.parametrize("with_nulls", [False, True],
                             ids=["dense", "nullable"])
    def test_random_conjunctions_bit_identical(self, dtype, with_nulls):
        """Random subsets of every operator, in random order: the
        selectivity-reordered narrowing path keeps exactly the
        interpreted rows, in ascending order."""
        for trial in range(25):
            values, nulls = make_columns(400, dtype, with_nulls)
            size = int(RNG.integers(1, len(ALL_PREDICATES) + 1))
            chosen = RNG.permutation(len(ALL_PREDICATES))[:size]
            filters = tuple(ALL_PREDICATES[i] for i in chosen)
            compiled = compile_filter(filters)
            keep = compiled.keep_positions(
                lambda _: values, lambda _: nulls, len(values))
            np.testing.assert_array_equal(
                keep, interpreted_keep(values, nulls, filters))

    def test_multi_column_conjunction(self):
        xs, x_nulls = make_columns(300, np.int64, True)
        ys, _ = make_columns(300, np.float64, False)
        columns = {"x": xs, "y": ys}
        null_masks = {"x": x_nulls, "y": None}
        filters = (
            pred("y", ComparisonOperator.BETWEEN, (0.0, 10.0)),
            pred("x", ComparisonOperator.EQ, 4.0),
            pred("y", ComparisonOperator.GEQ, 2.0),
        )
        compiled = compile_filter(filters)
        keep = compiled.keep_positions(
            columns.__getitem__, null_masks.__getitem__, 300)
        masks = [predicate_mask(columns[f.column.column],
                                null_masks[f.column.column], f)
                 for f in filters]
        np.testing.assert_array_equal(
            keep, np.flatnonzero(conjunction_mask(300, masks)))

    def test_contradiction_conjunctions_kept_by_rewrite(self):
        """PR 7's filter-merge rule deliberately keeps contradictions
        (``x = 1 AND x = 2``, disjoint BETWEENs): the compiled path must
        return the same empty result, via early exit, not an error."""
        values = np.arange(200, dtype=np.int64)
        contradictions = [
            (pred("x", ComparisonOperator.EQ, 1.0),
             pred("x", ComparisonOperator.EQ, 2.0)),
            (pred("x", ComparisonOperator.BETWEEN, (0.0, 10.0)),
             pred("x", ComparisonOperator.BETWEEN, (50.0, 60.0))),
            (pred("x", ComparisonOperator.LT, 5.0),
             pred("x", ComparisonOperator.GT, 100.0)),
        ]
        for filters in contradictions:
            compiled = compile_filter(filters)
            keep = compiled.keep_positions(
                lambda _: values, lambda _: None, len(values))
            assert keep.shape == (0,)
            np.testing.assert_array_equal(
                keep, interpreted_keep(values, None, filters))

    def test_empty_conjunction_keeps_everything(self):
        compiled = compile_filter(())
        keep = compiled.keep_positions(
            lambda _: np.arange(7), lambda _: None, 7)
        np.testing.assert_array_equal(keep, np.arange(7, dtype=np.int64))

    def test_predicates_sorted_by_selectivity_rank_stably(self):
        filters = (
            pred("x", ComparisonOperator.GEQ, 1.0),
            pred("x", ComparisonOperator.EQ, 2.0),
            pred("y", ComparisonOperator.LT, 9.0),
            pred("z", ComparisonOperator.EQ, 3.0),
        )
        compiled = CompiledFilter(filters)
        ops = [p.source.operator for p in compiled.predicates]
        assert ops == [ComparisonOperator.EQ, ComparisonOperator.EQ,
                       ComparisonOperator.GEQ, ComparisonOperator.LT]
        # Stable within a rank: x's EQ before z's EQ, GEQ before LT.
        assert compiled.predicates[0].column == "x"
        assert compiled.predicates[1].column == "z"

    def test_interpreted_conjunction_lone_mask_returned_directly(self):
        mask = np.array([True, False, True])
        assert conjunction_mask(3, [mask]) is mask

    def test_interpreted_conjunction_never_mutates_inputs(self):
        first = np.array([True, True, False])
        second = np.array([True, False, False])
        result = conjunction_mask(3, [first, second])
        np.testing.assert_array_equal(first, [True, True, False])
        np.testing.assert_array_equal(result, [True, False, False])


class TestCompiledFilterCache:
    def test_hits_and_misses(self):
        cache = CompiledFilterCache()
        filters = (pred("x", ComparisonOperator.EQ, 1.0),)
        first = cache.get_or_compile(("t", filters), filters)
        second = cache.get_or_compile(("t", filters), filters)
        assert first is second
        assert (cache.hits, cache.misses) == (1, 1)
        cache.get_or_compile(("u", filters), filters)
        assert (cache.hits, cache.misses, len(cache)) == (1, 2, 2)

    def test_lru_eviction(self):
        cache = CompiledFilterCache(max_entries=2)
        filters = (pred("x", ComparisonOperator.EQ, 1.0),)
        a = cache.get_or_compile(("a", filters), filters)
        cache.get_or_compile(("b", filters), filters)
        cache.get_or_compile(("a", filters), filters)  # refresh a
        cache.get_or_compile(("c", filters), filters)  # evicts b
        assert len(cache) == 2
        assert cache.get_or_compile(("a", filters), filters) is a
        b_again = cache.get_or_compile(("b", filters), filters)
        assert b_again is not a  # recompiled after eviction

    def test_non_positive_capacity_rejected(self):
        with pytest.raises(ExecutionError, match="positive"):
            CompiledFilterCache(max_entries=0)


def _relations_equal(left, right):
    assert set(left.columns) == set(right.columns)
    for key in left.columns:
        np.testing.assert_array_equal(left.columns[key], right.columns[key])
    assert set(left.null_masks) == set(right.null_masks)
    for key in left.null_masks:
        np.testing.assert_array_equal(left.null_masks[key],
                                      right.null_masks[key])


class TestExecutorEquivalence:
    """Full plans through the compiled executor vs the interpreted
    oracle (``compile_filters=False``) produce identical relations."""

    def _both(self, db, plan):
        compiled = Executor(db).execute(plan)
        oracle = Executor(db, compile_filters=False).execute(plan)
        assert compiled.root_rows == oracle.root_rows
        _relations_equal(compiled.relation, oracle.relation)
        return compiled

    def test_filtered_seq_scan(self, two_table_db):
        scan = SeqScan(
            table=TableRef("child"),
            filters=(
                pred("amount", ComparisonOperator.GEQ, 100.0, "child"),
                pred("amount", ComparisonOperator.LT, 200.0, "child"),
                pred("parent_id", ComparisonOperator.IN,
                     (3.0, 7.0, 11.0), "child"),
            ),
        )
        plan = PhysicalPlan(
            root=scan, query=Query(tables=(TableRef("child"),)),
            database_name=two_table_db.name)
        result = self._both(two_table_db, plan)
        assert result.root_rows > 0

    def test_index_scan_residual_filters(self, two_table_db):
        scan = IndexScan(
            table=TableRef("parent"),
            index_name="parent_pkey",
            index_column="id",
            index_predicates=(pred("id", ComparisonOperator.LT, 50.0,
                                   "parent"),),
            residual_filters=(pred("value", ComparisonOperator.EQ, 0.0,
                                   "parent"),),
        )
        plan = PhysicalPlan(
            root=scan, query=Query(tables=(TableRef("parent"),)),
            database_name=two_table_db.name)
        result = self._both(two_table_db, plan)
        assert result.root_rows == 5  # ids 0,10,20,30,40

    def test_join_over_filtered_scans(self, two_table_db):
        parent = SeqScan(
            table=TableRef("parent"),
            filters=(pred("value", ComparisonOperator.BETWEEN, (2.0, 6.0),
                          "parent"),),
        )
        child = SeqScan(
            table=TableRef("child"),
            filters=(pred("amount", ComparisonOperator.GEQ, 50.0, "child"),),
        )
        join = HashJoin(
            condition=JoinCondition(ColumnRef("child", "parent_id"),
                                    ColumnRef("parent", "id")),
            children=[child, HashBuild(key=ColumnRef("parent", "id"),
                                       children=[parent])],
        )
        root = PlainAggregate(
            aggregates=(AggregateSpec(AggregateFunction.COUNT),),
            children=[join])
        query = Query(tables=(TableRef("parent"), TableRef("child")))
        plan = PhysicalPlan(root=root, query=query,
                            database_name=two_table_db.name)
        result = self._both(two_table_db, plan)
        assert result.relation.columns  # count materialized

    def test_repeated_execution_hits_filter_cache(self, two_table_db):
        scan = SeqScan(
            table=TableRef("parent"),
            filters=(pred("value", ComparisonOperator.EQ, 3.0, "parent"),),
        )
        plan = PhysicalPlan(
            root=scan, query=Query(tables=(TableRef("parent"),)),
            database_name=two_table_db.name)
        executor = Executor(two_table_db)
        first = executor.execute(plan)
        misses = executor.filter_cache.misses
        second = executor.execute(plan)
        assert executor.filter_cache.misses == misses
        assert executor.filter_cache.hits >= 1
        _relations_equal(first.relation, second.relation)

    def test_execute_plan_defaults_to_compiled(self, two_table_db):
        scan = SeqScan(
            table=TableRef("parent"),
            filters=(pred("value", ComparisonOperator.EQ, 3.0, "parent"),),
        )
        plan = PhysicalPlan(
            root=scan, query=Query(tables=(TableRef("parent"),)),
            database_name=two_table_db.name)
        result = execute_plan(two_table_db, plan)
        assert result.root_rows == 10
        assert scan.actual_rows == 10


@pytest.mark.oracle
@pytest.mark.parametrize("path", ["seq scan", "index scan residual"])
def test_equal_literals_of_two_types_compile_apart(path):
    """``2**60`` and ``2.0**60`` compare and hash equal, so their
    predicates do too; over an ``int64`` column the first compares
    exactly and the second in ``float64``.  One executor that met the
    int literal first must not reuse its kernel for the float one: each
    plan returns what the interpreted filter returns (1 row, then 3)."""
    big = 2 ** 60
    table = Table(name="t", columns=(Column("id", DataType.INTEGER),
                                     Column("x", DataType.INTEGER)),
                  primary_key="id")
    database = Database.from_tables(
        "literals", Schema.from_tables("literals", [table]),
        {"t": TableData(table=table, columns={
            "id": np.arange(4, dtype=np.int64),
            "x": np.array([big - 1, big, big + 1, 7], dtype=np.int64)})})
    database.create_index("t_pkey", "t", "id")

    def plan(literal):
        filters = (pred("x", ComparisonOperator.EQ, literal),)
        if path == "seq scan":
            scan = SeqScan(table=TableRef("t"), filters=filters)
        else:
            scan = IndexScan(
                table=TableRef("t"), index_name="t_pkey", index_column="id",
                index_predicates=(pred("id", ComparisonOperator.GEQ, 0.0),),
                residual_filters=filters)
        return PhysicalPlan(root=scan, query=Query(tables=(TableRef("t"),)),
                            database_name=database.name)

    shared = Executor(database)
    for literal, rows in ((big, 1), (float(big), 3), (big, 1)):
        interpreted = Executor(database, compile_filters=False).execute(
            plan(literal))
        assert interpreted.root_rows == rows
        _relations_equal(shared.execute(plan(literal)).relation,
                         interpreted.relation)
