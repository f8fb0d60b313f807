"""Join kernels: row-identical parity with the sort-based reference,
the operator→kernel registry, and build-side caching."""

import numpy as np
import pytest

from repro.engine import (
    BuildSideCache,
    Executor,
    JoinHashTable,
    block_nested_loop_match,
    execute_plan,
    hash_join_match,
    join_kernel_for,
    merge_join_match,
    register_join_kernel,
    registered_join_kernels,
    reset_join_kernels,
    sort_merge_match,
)
from repro.errors import ExecutionError
from repro.plans import (
    HashBuild,
    HashJoin,
    MergeJoin,
    NestedLoopJoin,
    PhysicalPlan,
    PlainAggregate,
    SeqScan,
    Sort,
)
from repro.sql.ast import (
    AggregateFunction,
    AggregateSpec,
    ColumnRef,
    JoinCondition,
    Query,
    TableRef,
)

KERNELS = [hash_join_match, merge_join_match, block_nested_loop_match]
KERNEL_IDS = ["hash", "merge", "block-nl"]


def assert_matches_reference(kernel, left, right):
    expected = sort_merge_match(left, right)
    actual = kernel(left, right)
    np.testing.assert_array_equal(expected[0], actual[0])
    np.testing.assert_array_equal(expected[1], actual[1])
    assert actual[0].dtype == np.int64
    assert actual[1].dtype == np.int64


class TestKernelParity:
    """Each kernel must reproduce the reference pairs in the same order."""

    @pytest.mark.parametrize("kernel", KERNELS, ids=KERNEL_IDS)
    def test_fk_pk_int_keys(self, kernel):
        rng = np.random.default_rng(0)
        build = rng.permutation(500).astype(np.int64)
        probe = rng.integers(0, 700, 2_000, dtype=np.int64)  # some misses
        # merge kernel contract: right side sorted (others ignore order)
        assert_matches_reference(kernel, probe, np.sort(build))

    @pytest.mark.parametrize("kernel", KERNELS, ids=KERNEL_IDS)
    def test_duplicate_keys_both_sides(self, kernel):
        rng = np.random.default_rng(1)
        left = rng.integers(0, 40, 600, dtype=np.int64)
        right = np.sort(rng.integers(0, 40, 300, dtype=np.int64))
        assert_matches_reference(kernel, left, right)

    @pytest.mark.parametrize("kernel", KERNELS, ids=KERNEL_IDS)
    def test_float_keys(self, kernel):
        rng = np.random.default_rng(2)
        pool = np.round(rng.normal(size=50), 2)
        left = rng.choice(pool, 400)
        right = np.sort(rng.choice(pool, 200))
        assert_matches_reference(kernel, left, right)

    @pytest.mark.parametrize("kernel", KERNELS, ids=KERNEL_IDS)
    def test_negative_zero_matches_zero(self, kernel):
        left = np.array([0.0, -0.0, 1.0])
        right = np.array([-0.0, 0.5])
        assert_matches_reference(kernel, left, right)

    @pytest.mark.parametrize("kernel", KERNELS, ids=KERNEL_IDS)
    def test_empty_sides(self, kernel):
        empty = np.empty(0, dtype=np.int64)
        keys = np.arange(5)
        for left, right in ((empty, keys), (keys, empty), (empty, empty)):
            assert_matches_reference(kernel, left, right)

    @pytest.mark.parametrize("kernel", KERNELS, ids=KERNEL_IDS)
    def test_no_matches(self, kernel):
        left = np.arange(10, dtype=np.int64)
        right = np.arange(100, 110, dtype=np.int64)
        assert_matches_reference(kernel, left, right)

    def test_merge_kernel_unsorted_fallback(self):
        rng = np.random.default_rng(3)
        left = rng.integers(0, 30, 200, dtype=np.int64)
        right = rng.permutation(60).astype(np.int64)  # deliberately unsorted
        assert_matches_reference(merge_join_match, left, right)

    def test_hash_kernel_extreme_keys(self):
        """Hash must cope with negative ids and 64-bit magnitudes."""
        left = np.array([-5, 0, 2**62, -2**62, 7], dtype=np.int64)
        right = np.array([2**62, -5, 123], dtype=np.int64)
        assert_matches_reference(hash_join_match, left, right)

    @pytest.mark.parametrize("kernel", KERNELS, ids=KERNEL_IDS)
    def test_mixed_dtype_keys(self, kernel):
        """int vs float keys must compare numerically, like searchsorted."""
        left = np.array([1, 2, 3, 4, 7], dtype=np.int64)
        right = np.array([2.0, 2.0, 4.0, 9.5])  # sorted for the merge kernel
        assert_matches_reference(kernel, left, right)
        assert_matches_reference(kernel, right, np.arange(5).astype(np.int64))


class TestJoinHashTable:
    def test_build_once_probe_many(self):
        rng = np.random.default_rng(4)
        build = rng.integers(0, 100, 500, dtype=np.int64)
        table = JoinHashTable.build(build)
        for seed in (5, 6):
            probe = np.random.default_rng(seed).integers(
                0, 120, 800, dtype=np.int64)
            expected = sort_merge_match(probe, build)
            actual = table.probe(probe)
            np.testing.assert_array_equal(expected[0], actual[0])
            np.testing.assert_array_equal(expected[1], actual[1])

    def test_unhashable_dtype_returns_none(self):
        assert JoinHashTable.build(np.array(["a", "b"])) is None

    def test_probe_dtype_contract(self):
        float_table = JoinHashTable.build(np.array([1.0, 2.0, 4.0]))
        assert float_table.accepts(np.dtype(np.int64))
        left, right = float_table.probe(np.array([2, 3], dtype=np.int64))
        np.testing.assert_array_equal(left, [0])
        np.testing.assert_array_equal(right, [1])

        int_table = JoinHashTable.build(np.array([1, 2, 4], dtype=np.int64))
        assert not int_table.accepts(np.dtype(np.float64))
        with pytest.raises(ExecutionError):
            int_table.probe(np.array([2.0, 3.0]))

    def test_empty_build(self):
        table = JoinHashTable.build(np.empty(0, dtype=np.int64))
        left, right = table.probe(np.arange(3))
        assert len(left) == 0 and len(right) == 0


class TestRegistry:
    def test_defaults(self):
        assert join_kernel_for(HashJoin) is hash_join_match
        assert join_kernel_for(MergeJoin) is merge_join_match
        assert join_kernel_for(NestedLoopJoin) is block_nested_loop_match

    def test_subclass_inherits_parent_kernel(self):
        class FancyHashJoin(HashJoin):
            pass

        assert join_kernel_for(FancyHashJoin) is hash_join_match

    def test_register_and_restore(self):
        calls = []

        def spy_kernel(left, right):
            calls.append(len(left))
            return sort_merge_match(left, right)

        previous = register_join_kernel(MergeJoin, spy_kernel)
        try:
            assert previous is merge_join_match
            assert join_kernel_for(MergeJoin) is spy_kernel
        finally:
            register_join_kernel(MergeJoin, previous)
        assert join_kernel_for(MergeJoin) is merge_join_match

    def test_executor_uses_registered_kernel(self, two_table_db):
        calls = []

        def spy_kernel(left, right):
            calls.append((len(left), len(right)))
            return sort_merge_match(left, right)

        previous = register_join_kernel(NestedLoopJoin, spy_kernel)
        try:
            plan, join = _join_plan(two_table_db, NestedLoopJoin)
            result = execute_plan(two_table_db, plan)
            assert result.scalar() == 500
            assert calls == [(100, 500)] or calls == [(500, 100)]
        finally:
            register_join_kernel(NestedLoopJoin, previous)

    def test_new_operator_registration_restorable(self):
        """Passing back a None previous must remove the entry again."""
        class BrandNewJoin(HashJoin):
            pass

        previous = register_join_kernel(BrandNewJoin, sort_merge_match)
        assert previous is None
        assert join_kernel_for(BrandNewJoin) is sort_merge_match
        register_join_kernel(BrandNewJoin, previous)   # restore: remove
        assert join_kernel_for(BrandNewJoin) is hash_join_match  # inherited

    def test_snapshot_and_reset(self):
        snapshot = registered_join_kernels()
        assert snapshot[HashJoin] is hash_join_match
        register_join_kernel(HashJoin, sort_merge_match)
        reset_join_kernels()
        assert join_kernel_for(HashJoin) is hash_join_match


def _join_plan(db, join_class):
    condition = JoinCondition(ColumnRef("parent", "id"),
                              ColumnRef("child", "parent_id"))
    parent_scan = SeqScan(table=TableRef("parent"))
    child_scan = SeqScan(table=TableRef("child"))
    if join_class is HashJoin:
        join = HashJoin(condition=condition,
                        children=[child_scan,
                                  HashBuild(key=condition.left,
                                            children=[parent_scan])])
    elif join_class is MergeJoin:
        join = MergeJoin(
            condition=condition,
            children=[Sort(key=condition.left, children=[parent_scan]),
                      Sort(key=condition.right, children=[child_scan])],
        )
    else:
        join = NestedLoopJoin(condition=condition,
                              children=[parent_scan, child_scan])
    root = PlainAggregate(aggregates=(AggregateSpec(AggregateFunction.COUNT),),
                          children=[join])
    query = Query(tables=(TableRef("parent"), TableRef("child")))
    return PhysicalPlan(root=root, query=query, database_name=db.name), join


class TestBuildSideCache:
    def test_hit_replays_actuals_and_matches_uncached(self, two_table_db):
        cache = BuildSideCache()
        cached = Executor(two_table_db, build_cache=cache)
        plain = Executor(two_table_db)

        reference_plan, _ = _join_plan(two_table_db, HashJoin)
        plain.execute(reference_plan)

        for _ in range(3):
            plan, join = _join_plan(two_table_db, HashJoin)
            result = cached.execute(plan)
            assert result.scalar() == 500
            build_node = join.children[1]
            assert build_node.actual_rows == 100
            assert build_node.children[0].actual_rows == 100
        assert cache.hits == 2
        assert cache.misses == 1

    def test_distinct_build_sides_not_conflated(self, two_table_db):
        from repro.sql.ast import ComparisonOperator, Predicate

        cache = BuildSideCache()
        executor = Executor(two_table_db, build_cache=cache)

        plan_all, _ = _join_plan(two_table_db, HashJoin)
        assert executor.execute(plan_all).scalar() == 500

        condition = JoinCondition(ColumnRef("parent", "id"),
                                  ColumnRef("child", "parent_id"))
        filtered_parent = SeqScan(
            table=TableRef("parent"),
            filters=(Predicate(ColumnRef("parent", "id"),
                               ComparisonOperator.LT, 50.0),),
        )
        join = HashJoin(condition=condition,
                        children=[SeqScan(table=TableRef("child")),
                                  HashBuild(key=condition.left,
                                            children=[filtered_parent])])
        root = PlainAggregate(
            aggregates=(AggregateSpec(AggregateFunction.COUNT),),
            children=[join])
        query = Query(tables=(TableRef("parent"), TableRef("child")))
        plan = PhysicalPlan(root=root, query=query,
                            database_name=two_table_db.name)
        assert executor.execute(plan).scalar() == 250
        assert cache.misses == 2

    def test_cache_bound_to_one_database(self, two_table_db, tiny_imdb):
        cache = BuildSideCache()
        plan, _ = _join_plan(two_table_db, HashJoin)
        Executor(two_table_db, build_cache=cache).execute(plan)
        other = Executor(tiny_imdb, build_cache=cache)
        with pytest.raises(ExecutionError):
            other._cached_build(SeqScan(table=TableRef("title")))

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            BuildSideCache(max_entries=0)
