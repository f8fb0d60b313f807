"""Executor correctness on hand-built plans with known answers.

The two_table_db fixture has exactly known contents:
parent.value = id % 10 (100 rows), child.parent_id = id % 100 (500 rows),
child.amount = id as float.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.table_data import TableData
from repro.engine import Executor, execute_plan
from repro.engine.executor import _group_rows
from repro.engine.expressions import predicate_mask
from repro.errors import ExecutionError, PlanError
from repro.optimizer.planner import Planner
from repro.plans import (
    HashAggregate,
    HashBuild,
    HashJoin,
    IndexScan,
    MergeJoin,
    NestedLoopJoin,
    PhysicalPlan,
    PlainAggregate,
    SeqScan,
    Sort,
)
from repro.plans.plan import walk_plan
from repro.sql import parse_query
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
from repro.workload.generator import WorkloadSpec, generate_workload


def count_star():
    return (AggregateSpec(AggregateFunction.COUNT),)


def make_plan(root, db, tables=("parent",)):
    query = Query(tables=tuple(TableRef(t) for t in tables))
    return PhysicalPlan(root=root, query=query, database_name=db.name)


def pred(table, column, op, value):
    return Predicate(ColumnRef(table, column), op, value)


class TestScans:
    def test_seq_scan_all(self, two_table_db):
        scan = SeqScan(table=TableRef("parent"))
        root = PlainAggregate(aggregates=count_star(), children=[scan])
        result = execute_plan(two_table_db, make_plan(root, two_table_db))
        assert result.scalar() == 100
        assert scan.actual_rows == 100

    def test_seq_scan_filtered(self, two_table_db):
        scan = SeqScan(
            table=TableRef("parent"),
            filters=(pred("parent", "value", ComparisonOperator.EQ, 3.0),),
        )
        root = PlainAggregate(aggregates=count_star(), children=[scan])
        result = execute_plan(two_table_db, make_plan(root, two_table_db))
        assert result.scalar() == 10  # value==3 hits ids 3,13,...,93

    def test_seq_scan_range_conjunction(self, two_table_db):
        scan = SeqScan(
            table=TableRef("child"),
            filters=(
                pred("child", "amount", ComparisonOperator.GEQ, 100.0),
                pred("child", "amount", ComparisonOperator.LT, 200.0),
            ),
        )
        root = PlainAggregate(aggregates=count_star(), children=[scan])
        result = execute_plan(two_table_db, make_plan(root, two_table_db,
                                                      ("child",)))
        assert result.scalar() == 100

    def test_index_scan_range(self, two_table_db):
        scan = IndexScan(
            table=TableRef("parent"),
            index_name="parent_pkey",
            index_column="id",
            index_predicates=(pred("parent", "id",
                                   ComparisonOperator.BETWEEN, (10.0, 19.0)),),
        )
        root = PlainAggregate(aggregates=count_star(), children=[scan])
        result = execute_plan(two_table_db, make_plan(root, two_table_db))
        assert result.scalar() == 10

    def test_index_scan_with_residual(self, two_table_db):
        scan = IndexScan(
            table=TableRef("parent"),
            index_name="parent_pkey",
            index_column="id",
            index_predicates=(pred("parent", "id",
                                   ComparisonOperator.LT, 50.0),),
            residual_filters=(pred("parent", "value",
                                   ComparisonOperator.EQ, 0.0),),
        )
        root = PlainAggregate(aggregates=count_star(), children=[scan])
        result = execute_plan(two_table_db, make_plan(root, two_table_db))
        assert result.scalar() == 5  # ids 0,10,20,30,40

    def test_hypothetical_index_rejected(self, two_table_db):
        two_table_db.create_hypothetical_index("hypo_amount", "child", "amount")
        scan = IndexScan(
            table=TableRef("child"),
            index_name="hypo_amount",
            index_column="amount",
            index_predicates=(pred("child", "amount",
                                   ComparisonOperator.LT, 10.0),),
        )
        root = PlainAggregate(aggregates=count_star(), children=[scan])
        with pytest.raises(ExecutionError):
            execute_plan(two_table_db, make_plan(root, two_table_db, ("child",)))
        two_table_db.drop_index("hypo_amount")

    def test_unknown_index_rejected(self, two_table_db):
        scan = IndexScan(
            table=TableRef("parent"), index_name="ghost", index_column="id",
            index_predicates=(pred("parent", "id", ComparisonOperator.EQ, 1.0),),
        )
        root = PlainAggregate(aggregates=count_star(), children=[scan])
        with pytest.raises(ExecutionError):
            execute_plan(two_table_db, make_plan(root, two_table_db))

    @pytest.mark.parametrize("make_scan", [
        lambda projection: SeqScan(
            table=TableRef("parent"), projection=projection,
            filters=(pred("parent", "value", ComparisonOperator.LT, 7.0),)),
        lambda projection: SeqScan(table=TableRef("parent"),
                                   projection=projection),
        lambda projection: IndexScan(
            table=TableRef("parent"), index_name="parent_pkey",
            index_column="id", projection=projection,
            index_predicates=(pred("parent", "id",
                                   ComparisonOperator.BETWEEN, (10.0, 59.0)),),
            residual_filters=(pred("parent", "value",
                                   ComparisonOperator.LT, 7.0),)),
    ], ids=["seq-filtered", "seq-all", "index-range"])
    def test_a_scan_pruned_to_no_columns_still_has_its_rows(
            self, two_table_db, make_scan):
        """``COUNT(*)`` reads no column, so a scan under it may expose
        none; the rows are the row ids, not the length of some column."""
        counts = []
        for projection in (None, ()):
            scan = make_scan(projection)
            root = PlainAggregate(aggregates=count_star(), children=[scan])
            result = execute_plan(two_table_db,
                                  make_plan(root, two_table_db))
            assert scan.actual_rows == result.scalar()
            counts.append(scan.actual_rows)
        assert counts[0] == counts[1] > 0


def join_plan(db, join_class, filter_year=None):
    """parent JOIN child ON parent.id = child.parent_id."""
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
    root = PlainAggregate(aggregates=count_star(), children=[join])
    return make_plan(root, db, ("parent", "child")), join


class TestJoins:
    @pytest.mark.parametrize("join_class", [HashJoin, MergeJoin, NestedLoopJoin])
    def test_fk_join_cardinality(self, two_table_db, join_class):
        plan, join = join_plan(two_table_db, join_class)
        result = execute_plan(two_table_db, plan)
        # every child row matches exactly one parent
        assert result.scalar() == 500
        assert join.actual_rows == 500

    def test_index_nested_loop(self, two_table_db):
        condition = JoinCondition(ColumnRef("child", "parent_id"),
                                  ColumnRef("parent", "id"))
        outer = SeqScan(
            table=TableRef("child"),
            filters=(pred("child", "amount", ComparisonOperator.LT, 50.0),),
        )
        inner = IndexScan(
            table=TableRef("parent"),
            index_name="parent_pkey",
            index_column="id",
            lookup_column=ColumnRef("child", "parent_id"),
        )
        join = NestedLoopJoin(condition=condition, children=[outer, inner])
        root = PlainAggregate(aggregates=count_star(), children=[join])
        plan = make_plan(root, two_table_db, ("parent", "child"))
        result = execute_plan(two_table_db, plan)
        assert result.scalar() == 50
        assert inner.actual_rows == 50

    def test_join_result_columns_merged(self, two_table_db):
        plan, join = join_plan(two_table_db, HashJoin)
        executor = Executor(two_table_db)
        relation = executor._execute_node(join)
        assert "parent.value" in relation.columns
        assert "child.amount" in relation.columns

    def test_empty_join(self, two_table_db):
        condition = JoinCondition(ColumnRef("parent", "id"),
                                  ColumnRef("child", "parent_id"))
        parent_scan = SeqScan(
            table=TableRef("parent"),
            filters=(pred("parent", "id", ComparisonOperator.GT, 1000.0),),
        )
        child_scan = SeqScan(table=TableRef("child"))
        join = HashJoin(condition=condition,
                        children=[child_scan,
                                  HashBuild(children=[parent_scan])])
        root = PlainAggregate(aggregates=count_star(), children=[join])
        plan = make_plan(root, two_table_db, ("parent", "child"))
        result = execute_plan(two_table_db, plan)
        assert result.scalar() == 0


class TestAggregates:
    def test_min_max_sum_avg(self, two_table_db):
        scan = SeqScan(table=TableRef("child"))
        aggs = (
            AggregateSpec(AggregateFunction.MIN, ColumnRef("child", "amount")),
            AggregateSpec(AggregateFunction.MAX, ColumnRef("child", "amount")),
            AggregateSpec(AggregateFunction.SUM, ColumnRef("child", "amount")),
            AggregateSpec(AggregateFunction.AVG, ColumnRef("child", "amount")),
        )
        root = PlainAggregate(aggregates=aggs, children=[scan])
        result = execute_plan(two_table_db, make_plan(root, two_table_db,
                                                      ("child",)))
        assert result.scalar(0) == 0.0
        assert result.scalar(1) == 499.0
        assert result.scalar(2) == sum(range(500))
        assert result.scalar(3) == pytest.approx(249.5)

    def test_aggregate_on_empty_input_is_nan(self, two_table_db):
        scan = SeqScan(
            table=TableRef("parent"),
            filters=(pred("parent", "id", ComparisonOperator.GT, 10_000.0),),
        )
        root = PlainAggregate(
            aggregates=(AggregateSpec(AggregateFunction.MIN,
                                      ColumnRef("parent", "value")),),
            children=[scan],
        )
        result = execute_plan(two_table_db, make_plan(root, two_table_db))
        assert np.isnan(result.scalar())

    def test_group_by_counts(self, two_table_db):
        scan = SeqScan(table=TableRef("parent"))
        root = HashAggregate(
            group_by=(ColumnRef("parent", "value"),),
            aggregates=(AggregateSpec(AggregateFunction.COUNT),),
            children=[scan],
        )
        plan = make_plan(root, two_table_db)
        result = execute_plan(two_table_db, plan)
        assert root.actual_rows == 10  # values 0..9
        np.testing.assert_allclose(result.relation.columns["agg0"],
                                   np.full(10, 10.0))

    def test_group_by_min(self, two_table_db):
        scan = SeqScan(table=TableRef("parent"))
        root = HashAggregate(
            group_by=(ColumnRef("parent", "value"),),
            aggregates=(AggregateSpec(AggregateFunction.MIN,
                                      ColumnRef("parent", "id")),),
            children=[scan],
        )
        result = execute_plan(two_table_db, make_plan(root, two_table_db))
        values = result.relation.columns["parent.value"]
        minima = result.relation.columns["agg0"]
        order = np.argsort(values)
        np.testing.assert_allclose(minima[order], np.arange(10))

    def test_group_by_empty_input(self, two_table_db):
        scan = SeqScan(
            table=TableRef("parent"),
            filters=(pred("parent", "id", ComparisonOperator.GT, 10_000.0),),
        )
        root = HashAggregate(
            group_by=(ColumnRef("parent", "value"),),
            aggregates=(AggregateSpec(AggregateFunction.COUNT),),
            children=[scan],
        )
        result = execute_plan(two_table_db, make_plan(root, two_table_db))
        assert root.actual_rows == 0


def _record_array_groups(key_arrays):
    """The grouping ``_hash_aggregate`` used to do, kept as the oracle:
    one comparison sort of the keys stacked into a record array."""
    _, first_indices, group_ids = np.unique(
        np.rec.fromarrays(key_arrays), return_index=True,
        return_inverse=True)
    return first_indices, group_ids


def _assert_groups_like_the_record_array(key_arrays):
    first_indices, group_ids = _group_rows(key_arrays,
                                           [None] * len(key_arrays))
    want_first, want_ids = _record_array_groups(key_arrays)
    np.testing.assert_array_equal(group_ids, want_ids)
    np.testing.assert_array_equal(first_indices, want_first)
    # Group order: ascending, lexicographic by key.
    keys = [tuple(array[i] for array in key_arrays) for i in first_indices]
    assert keys == sorted(keys)


_INT_KEYS = st.sampled_from(
    [0, 1, -1, 7, np.iinfo(np.int64).min, np.iinfo(np.int64).max])
_FLOAT_KEYS = st.sampled_from(
    [0.0, -0.0, 1.5, -1.5, np.finfo(np.float64).max,
     np.finfo(np.float64).min, np.finfo(np.float64).tiny, np.inf, -np.inf])


@st.composite
def _key_arrays(draw):
    num_rows = draw(st.integers(1, 40))
    arrays = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            arrays.append(np.array(draw(st.lists(
                _INT_KEYS | st.integers(-3, 3),
                min_size=num_rows, max_size=num_rows)), dtype=np.int64))
        else:
            arrays.append(np.array(draw(st.lists(
                _FLOAT_KEYS | st.integers(-3, 3).map(float),
                min_size=num_rows, max_size=num_rows)), dtype=np.float64))
    return arrays


class TestGroupRows:
    """``_group_rows`` (per-key ranks folded into one code) against the
    record-array sort it replaced: same groups, same order, same first
    rows, hence the same key values and the same ``bincount`` inputs."""

    @settings(max_examples=100, deadline=None)
    @given(_key_arrays())
    def test_matches_the_record_array_sort(self, key_arrays):
        _assert_groups_like_the_record_array(key_arrays)

    def test_negative_zero_groups_with_zero(self):
        keys = [np.array([0.0, -0.0, 1.0, -0.0]), np.array([1, 1, 1, 2])]
        first_indices, group_ids = _group_rows(keys, [None, None])
        assert group_ids.tolist() == [0, 0, 2, 1]
        assert first_indices.tolist() == [0, 3, 2]
        _assert_groups_like_the_record_array(keys)

    @pytest.mark.parametrize("first_nullable", [True, False])
    def test_nulls_form_one_group_after_every_value(self, first_nullable):
        """NULL rows group together whatever value they store (here 5,
        1 and 9), and after every value of their key."""
        nullable = np.array([5, 1, 1, 9, 3])
        nulls = np.array([True, False, True, True, False])
        other = np.array([2, 2, 2, 2, 2])
        keys, masks = [nullable, other], [nulls, None]
        if not first_nullable:
            keys, masks = keys[::-1], masks[::-1]
        first_indices, group_ids = _group_rows(keys, masks)
        # Groups: 1, 3, NULL (rows 0, 2 and 3).
        assert group_ids.tolist() == [2, 0, 2, 2, 1]
        assert first_indices.tolist() == [1, 4, 0]

    def test_distinct_counts_multiplying_past_int64(self):
        """Three keys of 2**21 + 1 distinct values each: the product of
        the per-key distinct counts is above 2**63, so a code built as
        ``(rank0 * d1 + rank1) * d2 + rank2`` only fits because the
        running code is re-densified (to < num_rows) after every key."""
        num_rows = 2 ** 21 + 1
        assert num_rows ** 3 > 2 ** 63
        descending = np.arange(num_rows - 1, -1, -1, dtype=np.int64)
        keys = [descending, np.arange(num_rows, dtype=np.float64),
                descending]
        first_indices, group_ids = _group_rows(keys, [None] * 3)
        # Every row is its own group, ordered by the first key.
        np.testing.assert_array_equal(first_indices, descending)
        np.testing.assert_array_equal(group_ids, descending)

    def test_group_by_two_keys_end_to_end(self, two_table_db):
        scan = SeqScan(table=TableRef("child"))
        root = HashAggregate(
            group_by=(ColumnRef("child", "parent_id"),
                      ColumnRef("child", "amount")),
            aggregates=(AggregateSpec(AggregateFunction.COUNT),),
            children=[scan],
        )
        result = execute_plan(two_table_db, make_plan(root, two_table_db,
                                                      ("child",)))
        columns = result.relation.columns
        assert root.actual_rows == 500
        rows = list(zip(columns["child.parent_id"].tolist(),
                        columns["child.amount"].tolist()))
        assert rows == sorted((i % 100, float(i)) for i in range(500))
        assert columns["agg0"].tolist() == [1.0] * 500


class TestPlanMechanics:
    def test_wrong_database_rejected(self, two_table_db, tiny_imdb):
        scan = SeqScan(table=TableRef("parent"))
        root = PlainAggregate(aggregates=count_star(), children=[scan])
        plan = make_plan(root, two_table_db)
        with pytest.raises(ExecutionError):
            Executor(tiny_imdb).execute(plan)

    def test_plan_validation_runs(self, two_table_db):
        bad = HashJoin(condition=None, children=[
            SeqScan(table=TableRef("parent")),
            HashBuild(children=[SeqScan(table=TableRef("child"))]),
        ])
        with pytest.raises(PlanError):
            make_plan(bad, two_table_db, ("parent", "child"))

    def test_is_executed_and_reset(self, two_table_db):
        scan = SeqScan(table=TableRef("parent"))
        root = PlainAggregate(aggregates=count_star(), children=[scan])
        plan = make_plan(root, two_table_db)
        with pytest.raises(PlanError):
            plan.require_executed()
        execute_plan(two_table_db, plan)
        plan.require_executed()
        plan.reset_actuals()
        with pytest.raises(PlanError):
            plan.require_executed()

    def test_rows_source_selection(self, two_table_db):
        scan = SeqScan(table=TableRef("parent"))
        scan.est_rows = 42.0
        root = PlainAggregate(aggregates=count_star(), children=[scan])
        plan = make_plan(root, two_table_db)
        assert scan.rows(use_actual=False) == 42.0
        with pytest.raises(PlanError):
            scan.rows(use_actual=True)
        execute_plan(two_table_db, plan)
        assert scan.rows(use_actual=True) == 100.0


class TestPredicateMask:
    def test_nulls_never_match(self):
        values = np.array([1, 2, 3])
        nulls = np.array([False, True, False])
        predicate = pred("t", "c", ComparisonOperator.GT, 0.0)
        mask = predicate_mask(values, nulls, predicate)
        assert mask.tolist() == [True, False, True]

    def test_in_operator(self):
        values = np.array([1, 2, 3, 4])
        predicate = pred("t", "c", ComparisonOperator.IN, (2.0, 4.0))
        assert predicate_mask(values, None, predicate).tolist() == \
            [False, True, False, True]

    def test_neq(self):
        values = np.array([1, 2])
        predicate = pred("t", "c", ComparisonOperator.NEQ, 1.0)
        assert predicate_mask(values, None, predicate).tolist() == [False, True]


class _Counted(np.ndarray):
    """A column (or NULL mask) that logs how many elements are gathered
    from it — and from whatever was gathered from it."""

    log = None

    def __getitem__(self, index):
        result = super().__getitem__(index)
        if self.log is not None and isinstance(result, np.ndarray):
            if isinstance(index, np.ndarray):
                self.log.append(result.size)
            result = _counted(result, self.log)
        return result


def _counted(array, log):
    view = array.view(_Counted)
    view.log = log
    return view


class _CountedMasks(dict):
    def __init__(self, masks, table_name, work):
        super().__init__(masks)
        self.table_name = table_name
        self.work = work

    def get(self, name, default=None):
        self.work.columns_read.add((self.table_name, name))
        mask = super().get(name, default)
        return None if mask is None else _counted(mask, self.work.gathers)


class _Work:
    def __init__(self):
        self.columns_read: set[tuple[str, str]] = set()
        self.gathers: list[int] = []


class TestExecutorWork:
    """One ``execute()`` reads the columns its plan names and gathers
    key columns, not tables: the guard behind the ``collect_corpus``
    numbers.  Counted, not timed."""

    @pytest.fixture()
    def work(self, tiny_imdb, monkeypatch):
        """Every base column / NULL mask the executor asks ``TableData``
        for, and the size of every gather out of one."""
        work = _Work()
        original = TableData.column_values

        def column_values(data, name):
            work.columns_read.add((data.table.name, name))
            return _counted(original(data, name), work.gathers)

        monkeypatch.setattr(TableData, "column_values", column_values)
        for table in tiny_imdb.schema.table_names:
            data = tiny_imdb.table_data(table)
            monkeypatch.setattr(data, "null_masks", _CountedMasks(
                data.null_masks, table, work))
        return work

    @staticmethod
    def _named(query, refs):
        tables = {table.name: table.table_name for table in query.tables}
        return {(tables[ref.table], ref.column) for ref in refs}

    def _keys_and_filters(self, query):
        return self._named(
            query, [side for join in query.joins
                    for side in (join.left, join.right)]
            + [predicate.column for predicate in query.predicates])

    def test_count_star_reads_keys_and_filters_only(self, tiny_imdb, work):
        generated = generate_workload(tiny_imdb, WorkloadSpec(
            num_queries=60, max_tables=3, seed=19))
        queries = [replace(query, aggregates=(), group_by=())
                   for query in generated
                   if len(query.tables) == 3 and query.predicates]
        assert len(queries) >= 5
        planner = Planner(tiny_imdb)
        for query in queries:
            plan = planner.plan(query)
            work.columns_read.clear()
            Executor(tiny_imdb).execute(plan)
            allowed = self._keys_and_filters(query)
            assert work.columns_read, "the counter saw nothing"
            assert work.columns_read <= allowed, \
                f"payload columns read: {sorted(work.columns_read - allowed)}"

    def test_an_aggregate_adds_exactly_its_column(self, tiny_imdb, work):
        text = ("SELECT {} FROM title t, movie_keyword mk, cast_info ci "
                "WHERE t.id = mk.movie_id AND t.id = ci.movie_id "
                "AND t.production_year > 1990")
        read = {}
        for select in ("COUNT(*)", "SUM(t.votes)"):
            plan = Planner(tiny_imdb).plan(parse_query(text.format(select)))
            work.columns_read.clear()
            Executor(tiny_imdb).execute(plan)
            read[select] = set(work.columns_read)
        assert read["SUM(t.votes)"] - read["COUNT(*)"] == {("title", "votes")}
        assert read["COUNT(*)"] <= read["SUM(t.votes)"]

    def test_gathers_scale_with_keys_not_with_table_width(self, tiny_imdb,
                                                          work):
        query = parse_query(
            "SELECT COUNT(*) FROM title t, movie_keyword mk, cast_info ci, "
            "movie_companies mc, movie_info mi WHERE t.id = mk.movie_id "
            "AND t.id = ci.movie_id AND t.id = mc.movie_id "
            "AND t.id = mi.movie_id AND t.production_year > 1990")
        plan = Planner(tiny_imdb).plan(query)
        work.gathers.clear()
        Executor(tiny_imdb).execute(plan)
        gathered = sum(work.gathers)

        def scans_under(node):
            return [scan for scan in walk_plan(node)
                    if isinstance(scan, (SeqScan, IndexScan))]

        def width(scan):
            data = tiny_imdb.table_data(scan.table.table_name)
            return len(data.columns) + len(data.null_masks)

        joins = [node for node in plan.nodes()
                 if isinstance(node, (HashJoin, MergeJoin, NestedLoopJoin))]
        assert len(joins) == 4
        # Per join: one row-id vector per alias plus the two keys, over
        # its input and output rows.  (Row-id composition is no column
        # read and is not even counted here; the bound has room for it.)
        late = sum(
            (len(scans_under(join)) + 2)
            * (join.actual_rows
               + sum(child.actual_rows for child in join.children))
            for join in joins)
        # What carrying every column and mask through every join costs.
        eager = sum(
            sum(width(scan) for scan in scans_under(join)) * join.actual_rows
            for join in joins)
        assert 0 < gathered <= late < eager / 2
