"""Join kernels: row-identical parity with the join's all-pairs
definition over both layouts of the join table (and the sort-merge
reference kernel), each join operator running its own kernel, and
build-side caching."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.engine.executor
import repro.engine.join_kernels
from repro.db import Database, DataType, Schema, TableData
from repro.db.index import expand_runs
from repro.db.schema import Column, Table
from repro.engine import BuildSideCache, Executor, execute_plan
from repro.engine.join_kernels import (
    _DIRECT_MIN_SPAN,
    _DIRECT_SPAN_PER_KEY,
    JoinHashTable,
    block_nested_loop_match,
    hash_join_match,
    hash_join_table,
)
from repro.errors import ExecutionError
from repro.plans import (
    HashAggregate,
    HashBuild,
    HashJoin,
    NestedLoopJoin,
    PhysicalPlan,
    PlainAggregate,
    SeqScan,
)
from repro.sql.ast import (
    AggregateFunction,
    AggregateSpec,
    ColumnRef,
    JoinCondition,
    Query,
    TableRef,
)

pytestmark = pytest.mark.perf


def sort_merge_match(left_keys, right_keys):
    """Reference kernel: sort the right side, binary-search every left
    key, expand each left row over its run of equal right keys."""
    order = np.argsort(right_keys, kind="stable")
    sorted_right = right_keys[order]
    starts = np.searchsorted(sorted_right, left_keys, side="left")
    stops = np.searchsorted(sorted_right, left_keys, side="right")
    left_indices, right_positions = expand_runs(starts, stops - starts)
    return left_indices, order[right_positions]


KERNELS = [sort_merge_match, hash_join_match, block_nested_loop_match]
KERNEL_IDS = ["sort-merge", "hash", "block-nl"]


def all_pairs_match(left, right):
    """The join's definition, independent of every kernel: each pair of
    equal keys (compared numerically, ``-0.0 == 0.0``), ordered by left
    row, then right row."""
    left_rows, right_rows = np.nonzero(left[:, None] == right[None, :])
    return left_rows.astype(np.int64), right_rows.astype(np.int64)


def assert_matches_reference(kernel, left, right):
    expected = all_pairs_match(left, right)
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

    def test_hash_kernel_extreme_keys(self):
        """Hash must cope with negative ids and 64-bit magnitudes."""
        left = np.array([-5, 0, 2**62, -2**62, 7], dtype=np.int64)
        right = np.array([2**62, -5, 123], dtype=np.int64)
        assert_matches_reference(hash_join_match, left, right)

    @pytest.mark.parametrize("kernel", KERNELS, ids=KERNEL_IDS)
    def test_mixed_dtype_keys(self, kernel):
        """int vs float keys must compare numerically, like searchsorted."""
        left = np.array([1, 2, 3, 4, 7], dtype=np.int64)
        right = np.array([2.0, 2.0, 4.0, 9.5])
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

    def test_a_dtype_without_an_integer_view_is_refused(self):
        keys = np.array(["a", "b"])
        with pytest.raises(ExecutionError):
            JoinHashTable.build(keys)
        with pytest.raises(ExecutionError):
            hash_join_match(keys, keys)

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
        """An empty build has no layout, and every probe misses."""
        probes = (np.arange(3), np.array([-0.0, 2.5, np.inf]),
                  np.empty(0, dtype=np.int64))
        for dtype in (np.int64, np.float64):
            table = JoinHashTable.build(np.empty(0, dtype=dtype))
            assert layout(table) == "empty"
            assert table._low is None and table._rows is None
            for probe in probes:
                probe_rows, slots = table.match(probe)
                build_rows, reached = table.matched_build_rows(slots)
                for result in (probe_rows, slots, *table.probe(probe),
                               build_rows, reached):
                    assert len(result) == 0


def layout(table):
    if table._slots is not None:
        return "direct"
    return "empty" if table._distinct is None else "sorted"


def layout_by_rule(build):
    """The layout a build must get: none when it is empty, direct for
    integer keys whose span is at most ``max(4 n, 2**20)``, sorted
    otherwise (Python ints: no overflow)."""
    if not len(build):
        return "empty"
    if build.dtype.kind == "f":
        return "sorted"
    span = int(build.max()) - int(build.min()) + 1
    cap = max(_DIRECT_SPAN_PER_KEY * len(build), _DIRECT_MIN_SPAN)
    return "direct" if span <= cap else "sorted"


def assert_hash_kernels_match_reference(build, probes):
    """``hash_join_match`` and one table probed again and again against
    the all-pairs definition: the same pairs in the same order; and what
    ``match`` finds without expanding — each matched probe row's run
    length, each reached build row's number of partners — is what the
    pairs count.  The table has the layout its keys' span calls for.
    Returns the table."""
    table = JoinHashTable.build(build)
    assert layout(table) == layout_by_rule(build)
    for probe in probes:
        assert_matches_reference(hash_join_match, probe, build)
        if not table.accepts(probe.dtype) and len(build) and len(probe):
            with pytest.raises(ExecutionError):
                table.probe(probe)
            continue
        assert_matches_reference(lambda keys, _: table.probe(keys),
                                 probe, build)
        assert_multiplicities_match_pairs(table, probe, len(build))
    return table


def assert_multiplicities_match_pairs(table, probe, num_build_rows):
    pair_probe_rows, pair_build_rows = table.probe(probe)
    probe_rows, slots = table.match(probe)
    runs = table.run_lengths(slots)
    np.testing.assert_array_equal(
        np.repeat(probe_rows, 1 if runs is None else runs), pair_probe_rows)
    build_rows, reached = table.matched_build_rows(slots)
    assert len(np.unique(build_rows)) == len(build_rows)
    assert (reached > 0).all()
    partners = np.zeros(num_build_rows, dtype=np.int64)
    partners[build_rows] = reached
    np.testing.assert_array_equal(
        partners, np.bincount(pair_build_rows, minlength=num_build_rows))


_SMALL_INTS = st.integers(-4, 12)
_SPARSE_INTS = st.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max)
_FLOATS = (st.sampled_from([0.0, -0.0, 0.5, -2.5, np.inf, -np.inf,
                            np.finfo(np.float64).max,
                            np.finfo(np.float64).tiny])
           | _SMALL_INTS.map(float))


@st.composite
def _join_sides(draw, values, build_dtype, probe_dtype=None):
    """A build side and three probe sides (any of them may be empty).
    Keys come from a small shared pool, so both sides repeat them and
    match each other, or straight from ``values``, so some match
    nothing."""
    pool = draw(st.lists(values, min_size=1, max_size=12))
    key = st.sampled_from(pool) | values
    build = np.array(draw(st.lists(key, max_size=40)), dtype=build_dtype)
    probes = [np.array(draw(st.lists(key, max_size=60)),
                       dtype=probe_dtype or build_dtype) for _ in range(3)]
    return build, probes


_INT64 = np.iinfo(np.int64)


@st.composite
def _spanned_sides(draw, widths):
    """A build side of keys in ``[low, low + width)``, both ends among
    them, so its span is exactly ``width``; and three probe sides of
    build keys and of keys inside, just outside and far outside the
    span.  ``low`` is anywhere in int64, at its very ends included, and
    keys repeat on both sides."""
    width = draw(widths)
    top = _INT64.max - width + 1
    low = draw(st.sampled_from([_INT64.min, top]) | st.integers(_INT64.min,
                                                                  top))
    high = low + width - 1
    inside = st.integers(low, high)
    pool = draw(st.lists(inside, min_size=1, max_size=12))
    build = draw(st.permutations(
        draw(st.lists(st.sampled_from(pool) | inside, max_size=38))
        + [low, high]))
    outside = [st.sampled_from([key for key in (low - 1, high + 1)
                                if _INT64.min <= key <= _INT64.max] or [low])]
    if low > _INT64.min:
        outside.append(st.integers(_INT64.min, low - 1))
    if high < _INT64.max:
        outside.append(st.integers(high + 1, _INT64.max))
    key = st.sampled_from(build) | inside | st.one_of(outside)
    probes = [np.array(draw(st.lists(key, max_size=60)), dtype=np.int64)
              for _ in range(3)]
    return np.array(build, dtype=np.int64), probes


class TestGeneratedParity:
    """Generated inputs where ``TestKernelParity``'s are hand-picked."""

    @settings(max_examples=200, deadline=None)
    @given(_spanned_sides(st.integers(1, 1 << 16)
                          | st.integers((1 << 16) + 1, _DIRECT_MIN_SPAN)))
    def test_narrow_spans_are_direct(self, sides):
        """Widths up to the floor, about half of the draws past 2**16."""
        table = assert_hash_kernels_match_reference(*sides)
        assert layout(table) == "direct"

    @settings(max_examples=150, deadline=None)
    @given(_spanned_sides(st.integers(_DIRECT_MIN_SPAN + 1, 2 ** 64)))
    def test_wide_spans_are_sorted(self, sides):
        table = assert_hash_kernels_match_reference(*sides)
        assert layout(table) == "sorted"

    @settings(max_examples=150, deadline=None)
    @given(_join_sides(_SMALL_INTS, np.int64))
    def test_duplicates_on_both_sides(self, sides):
        assert_hash_kernels_match_reference(*sides)

    @settings(max_examples=150, deadline=None)
    @given(_join_sides(_SPARSE_INTS, np.int64))
    def test_sparse_64_bit_keys(self, sides):
        assert_hash_kernels_match_reference(*sides)

    @settings(max_examples=150, deadline=None)
    @given(_join_sides(_FLOATS, np.float64))
    def test_float_keys_with_both_zeros(self, sides):
        assert_hash_kernels_match_reference(*sides)

    @settings(max_examples=100, deadline=None)
    @given(_join_sides(_SMALL_INTS, np.float64, probe_dtype=np.int64))
    def test_int_probes_against_a_float_table(self, sides):
        build, probes = sides
        assert JoinHashTable.build(build).accepts(probes[0].dtype)
        assert_hash_kernels_match_reference(build, probes)

    @settings(max_examples=100, deadline=None)
    @given(_join_sides(_SMALL_INTS, np.int64, probe_dtype=np.float64))
    def test_float_probes_against_an_int_table_are_refused(self, sides):
        build, probes = sides
        assert not JoinHashTable.build(build).accepts(probes[0].dtype)
        assert_hash_kernels_match_reference(build, probes)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 5_000), min_size=1, max_size=50),
           st.integers(2_000, 6_000), st.integers(0, 2 ** 32 - 1))
    def test_a_few_keys_under_thousands_of_probes(self, build, num_probes,
                                                  seed):
        rng = np.random.default_rng(seed)
        probes = [rng.integers(0, 5_000, num_probes, dtype=np.int64)
                  for _ in range(3)]
        assert_hash_kernels_match_reference(
            np.array(build, dtype=np.int64), probes)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_SPARSE_INTS.map(lambda key: key | 1), max_size=40),
           st.lists(_SPARSE_INTS.map(lambda key: key & ~1), max_size=60))
    def test_no_match_at_all(self, build, probe):
        build = np.array(build, dtype=np.int64)
        probe = np.array(probe, dtype=np.int64)
        assert_hash_kernels_match_reference(build, [probe] * 3)
        assert len(JoinHashTable.build(build).probe(probe)[0]) == 0


#: ``(group keys, (function, column) per aggregate)`` of the aggregates
#: that fold a join without building it.
_FOLDED_SHAPES = {
    "scalar": ((), ((AggregateFunction.COUNT, None),
                    (AggregateFunction.SUM, ColumnRef("p", "v")),
                    (AggregateFunction.MIN, ColumnRef("b", "v")),
                    (AggregateFunction.AVG, ColumnRef("b", "v")))),
    "keys-on-probe": ((ColumnRef("p", "k"),),
                      ((AggregateFunction.COUNT, None),
                       (AggregateFunction.SUM, ColumnRef("p", "v")),
                       (AggregateFunction.MAX, ColumnRef("p", "v")))),
    "keys-on-build": ((ColumnRef("b", "v"),),
                      ((AggregateFunction.COUNT, None),
                       (AggregateFunction.MIN, ColumnRef("b", "k")),
                       (AggregateFunction.AVG, ColumnRef("b", "k")))),
}


class TestProbeWork:
    """A probe expands what matched, not what it was compared with: the
    guard behind the ``collect_corpus`` numbers.  Counted, not timed."""

    @pytest.fixture()
    def repeated(self, monkeypatch):
        """The size of every ``np.repeat`` result (all a kernel's run
        expansion materialises goes through one)."""
        sizes = []
        original = np.repeat

        def repeat(*args, **kwargs):
            out = original(*args, **kwargs)
            sizes.append(out.size)
            return out

        monkeypatch.setattr(np, "repeat", repeat)
        return sizes

    def test_distinct_build_keys_expand_nothing(self, repeated):
        rng = np.random.default_rng(46)
        probe = rng.permutation(80_000).astype(np.int64) * 64
        build = probe[:46].copy()
        # The premise: the 46 keys span more than the direct layout's
        # cap, so most probe rows land beside a key that is not theirs.
        assert np.ptp(build) >= _DIRECT_MIN_SPAN
        table = JoinHashTable.build(build)
        assert layout(table) == "sorted"
        repeated.clear()
        probe_rows, build_rows = table.probe(probe)
        np.testing.assert_array_equal(probe_rows, np.arange(46))
        np.testing.assert_array_equal(build_rows, np.arange(46))
        assert sum(repeated) == 0

    def test_fan_out_expands_matches_only(self, repeated):
        rng = np.random.default_rng(1106)
        values = rng.permutation(1_250)[:1_106]
        build = rng.choice(values, 11_966).astype(np.int64)
        probe = rng.integers(0, 1_250, 18_917, dtype=np.int64)
        table = JoinHashTable.build(build)
        repeated.clear()
        probe_rows, build_rows = table.probe(probe)
        matches = len(probe_rows)
        assert matches > 100_000
        np.testing.assert_array_equal(build[build_rows], probe[probe_rows])
        assert 0 < sum(repeated) <= 2 * matches

    @pytest.mark.parametrize("shape", list(_FOLDED_SHAPES))
    @pytest.mark.parametrize("cached", [False, True],
                             ids=["uncached", "build-cache"])
    def test_an_aggregate_on_the_join_expands_nothing(self, repeated, cached,
                                                      shape):
        """An aggregate directly on a duplicate-key hash join — scalar,
        or grouped by keys on one side, reading only that side — folds
        per-key multiplicities: no ``np.repeat`` as large as the join,
        and the join still reports the row count it would have built."""
        group_by, aggregates = _FOLDED_SHAPES[shape]
        join, answer = _aggregate_on_the_fan_out(cached, group_by,
                                                 aggregates, repeated)
        fused_rows = join.actual_rows
        assert max(repeated, default=0) < 0.1 * fused_rows
        assert fused_rows >= 100_000
        assert answer == _materialised_answer(join, group_by, aggregates)
        assert fused_rows == join.actual_rows

    @pytest.mark.parametrize("cached", [False, True],
                             ids=["uncached", "build-cache"])
    def test_keys_on_both_sides_build_the_join(self, repeated, cached):
        """Grouped by a probe-side key, folding a build-side column: the
        one shape with no per-side grouping, so the join's rows are built
        (an ``np.repeat`` as large as the join) and grouped."""
        shape = ((ColumnRef("p", "k"),),
                 ((AggregateFunction.MIN, ColumnRef("b", "v")),
                  (AggregateFunction.COUNT, None)))
        join, answer = _aggregate_on_the_fan_out(cached, *shape, repeated)
        assert max(repeated) >= join.actual_rows >= 100_000
        assert answer == _materialised_answer(join, *shape)


def _aggregate_on_the_fan_out(cached, group_by, aggregates, repeated):
    """Run the aggregate on ``probe p ⋈ build b`` over the fan-out
    database, ``repeated`` counting from the execution on: ``(the join
    node, the answer's columns as lists)``."""
    database = _fan_out_database(np.random.default_rng(39))
    condition = JoinCondition(ColumnRef("p", "k"), ColumnRef("b", "k"))
    join = HashJoin(condition=condition, children=[
        SeqScan(table=TableRef("probe", "p")),
        HashBuild(key=condition.right,
                  children=[SeqScan(table=TableRef("build", "b"))])])
    specs = tuple(AggregateSpec(function, column)
                  for function, column in aggregates)
    root = HashAggregate(group_by=group_by, aggregates=specs,
                         children=[join]) if group_by else \
        PlainAggregate(aggregates=specs, children=[join])
    plan = PhysicalPlan(
        root=root, query=Query(tables=(TableRef("probe", "p"),
                                       TableRef("build", "b"))),
        database_name=database.name)
    executor = Executor(database,
                        build_cache=BuildSideCache() if cached else None)
    repeated.clear()
    columns = executor.execute(plan).relation.columns
    assert root.actual_rows == len(next(iter(columns.values())))
    return join, [column.tolist() for column in columns.values()]


def _materialised_answer(join, group_by, aggregates):
    """The aggregate folded over the join's built rows (a fresh uncached
    executor), grouped by ``np.unique``: the columns as lists.  The
    values are small integers, so every sum is exact in any order."""
    executor = Executor(_fan_out_database(np.random.default_rng(39)))
    joined = executor._execute_node(join)
    if group_by:
        (key,) = group_by
        distinct, inverse = np.unique(joined.column(key),
                                      return_inverse=True)
        columns = [distinct.tolist()]
    else:
        inverse = np.zeros(joined.num_rows, dtype=np.intp)
        columns = []
    counts = np.bincount(inverse)
    for function, column in aggregates:
        values = None if column is None else joined.column(column)
        if function is AggregateFunction.COUNT:
            folded = counts.astype(np.float64)
        elif function in (AggregateFunction.SUM, AggregateFunction.AVG):
            folded = np.bincount(inverse, weights=values.astype(np.float64))
            if function is AggregateFunction.AVG:
                folded /= counts
        else:
            lowest = function is AggregateFunction.MIN
            folded = np.full(len(counts),
                             values.max() if lowest else values.min())
            (np.minimum if lowest else np.maximum).at(folded, inverse,
                                                      values)
            folded = folded.astype(np.float64)
        columns.append(folded.tolist())
    return columns


def _fan_out_database(rng) -> Database:
    """``probe(k, v)`` of 4 000 rows and ``build(k, v)`` of 1 000, both
    keyed over 20 values: about 200 000 rows in the join."""
    tables, data = [], {}
    for name, rows in (("probe", 4_000), ("build", 1_000)):
        table = Table(name=name, columns=(Column("k", DataType.INTEGER),
                                          Column("v", DataType.INTEGER)))
        tables.append(table)
        data[name] = TableData(table=table, columns={
            "k": rng.integers(0, 20, rows, dtype=np.int64),
            "v": rng.integers(-1_000, 1_000, rows, dtype=np.int64)})
    database = Database.from_tables("fan-out",
                                    Schema.from_tables("fan-out", tables),
                                    data)
    database.analyze()
    return database


class TestRadixBuild:
    """A duplicate-key build whose keys span fewer than 2**16 values sorts
    them as ``uint16`` (a radix sort) and builds the very table the
    comparison sort builds, in either layout."""

    @staticmethod
    def _fields(table):
        return [getattr(table, field.name)
                for field in dataclasses.fields(table)]

    def _assert_same_table(self, keys, monkeypatch, radix, built_layout):
        canonical = repro.engine.join_kernels._canonical_int_view(keys)
        narrowed = repro.engine.join_kernels._narrowed(canonical)
        assert (narrowed.dtype == np.uint16) == radix
        built = JoinHashTable.build(keys)
        assert layout(built) == built_layout
        with monkeypatch.context() as patch:
            patch.setattr(repro.engine.join_kernels, "_narrowed",
                          lambda canonical: canonical)
            compared = JoinHashTable.build(keys)
        assert built._run_counts is not None    # the grouping sort ran
        for mine, theirs in zip(self._fields(built), self._fields(compared)):
            if isinstance(mine, np.ndarray):
                assert mine.dtype == theirs.dtype
                np.testing.assert_array_equal(mine, theirs)
            else:
                assert mine == theirs

    @pytest.mark.parametrize("keys, radix, built_layout", [
        (np.array([5, -3, 5, 0, -3, -3, 7, 5], dtype=np.int64), True,
         "direct"),
        (np.array([-70_000, -5, -70_000, 2, -5], dtype=np.int64), False,
         "direct"),
        (np.array([-2_000_000, -5, -2_000_000, 2, -5], dtype=np.int64), False,
         "sorted"),
        (np.repeat(np.arange(0, 70_000, 7, dtype=np.int64), 2)[::-1], False,
         "direct"),
        (np.array([0.0, -0.0, 1.5, -0.0, -2.5, 1.5]), False, "sorted"),
        (np.array([1.0, np.nextafter(1.0, 2.0), 1.0, np.nextafter(1.0, 0.0),
                   np.nextafter(1.0, 2.0)]), True, "sorted"),
        (np.array([2**63 - 1, 2**63 - 9, 2**63 - 1, 2**63 - 9],
                  dtype=np.int64), True, "direct"),
        (np.array([-2**63, -2**63 + 65_535, -2**63, -2**63 + 65_535],
                  dtype=np.int64), True, "direct"),
        (np.array([-2**63, 2**63 - 1, -2**63, 2**63 - 1, 0, 0],
                  dtype=np.int64), False, "sorted"),
    ], ids=["negatives", "wide-span", "past-the-direct-floor",
            "direct-past-16-bits", "signed-zeros",
            "adjacent-floats", "top-of-int64", "bottom-of-int64", "extremes"])
    def test_same_table_as_the_comparison_sort(self, keys, radix,
                                               built_layout, monkeypatch):
        self._assert_same_table(keys, monkeypatch, radix, built_layout)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max),
           st.lists(st.integers(0, 65_535), min_size=2, max_size=300))
    def test_generated_narrow_spans(self, base, offsets):
        low = max(np.iinfo(np.int64).min,
                  min(base, np.iinfo(np.int64).max - 65_535))
        keys = np.array([low + offset for offset in offsets + offsets[:1]],
                        dtype=np.int64)
        with pytest.MonkeyPatch.context() as monkeypatch:
            self._assert_same_table(keys, monkeypatch, radix=True,
                                    built_layout="direct")


#: join operator → the kernel name its executor handler calls (a hash
#: join's builds the table it then matches against).
JOIN_KERNELS = {HashJoin: "hash_join_table",
                NestedLoopJoin: "block_nested_loop_match"}


class TestKernelDispatch:
    @pytest.mark.parametrize("join_class", JOIN_KERNELS,
                             ids=lambda cls: cls.__name__)
    def test_each_join_runs_its_own_kernel(self, two_table_db, join_class,
                                           monkeypatch):
        """A spy swapped in under the kernel's name sees exactly one
        call, with both key columns, and its pairs (a hash join: its
        table) are the result."""
        calls = []

        def spy_kernel(left, right):
            calls.append(sorted((len(left), len(right))))
            if join_class is HashJoin:
                return hash_join_table(left, right)
            return sort_merge_match(left, right)

        monkeypatch.setattr(repro.engine.executor, JOIN_KERNELS[join_class],
                            spy_kernel)
        plan, _ = _join_plan(two_table_db, join_class)
        assert execute_plan(two_table_db, plan).scalar() == 500
        assert calls == [[100, 500]]


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

        for attempt in range(3):
            plan, join = _join_plan(two_table_db, HashJoin)
            result = cached.execute(plan)
            assert result.scalar() == 500
            build_node = join.children[1]
            assert build_node.actual_rows == 100
            assert build_node.children[0].actual_rows == 100
            # A replayed build side ran nowhere: it has no time.
            replayed = attempt > 0
            assert (build_node.actual_ms is None) == replayed
            assert (build_node.children[0].actual_ms is None) == replayed
            assert join.actual_ms >= 0
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
