"""The scan oracle: conjunctions on one indexed column, every scan path
of the engine against stdlib ``sqlite3``.

The engine's other equivalence suites compare it with itself (compiled
vs interpreted filters, rewrites on vs off).  Here the referee shares no
code with it: two tables — a generated one whose indexed column holds
NULLs and duplicate keys, and ``tiny_imdb``'s ``title`` with its unique
primary key — are loaded into an in-memory ``sqlite3`` database, and the
same SQL text runs through

* a sequential scan with compiled filters,
* a sequential scan with interpreted filters,
* an index scan (``enable_seqscan=False``), with and without rewrites,
* the default planner, with and without rewrites,

all of which must return ``sqlite3``'s ``COUNT(*)``, ``SUM`` and
``MIN``.  First slice of the differential-testing item in ROADMAP.md:
scans only; joins and grouped aggregates are
``tests/optimizer/test_join_oracle.py``.
"""

import itertools
import math
import sqlite3
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sqlite_oracle import load_table

from repro.db import SyntheticDatabaseSpec, generate_database
from repro.engine import Executor
from repro.errors import OptimizerError
from repro.optimizer import plan_query
from repro.optimizer.planner import PlannerOptions
from repro.plans import IndexScan
from repro.sql import ComparisonOperator, parse_query

pytestmark = pytest.mark.oracle

OPERATORS = ("=", "<>", "<", "<=", ">", ">=", "BETWEEN", "IN")
#: Operators no B-tree range serves: a conjunction of only these has no
#: index path to force.
_NOT_A_RANGE = (ComparisonOperator.NEQ, ComparisonOperator.IN)

#: How the (low, high) anchors of two predicates relate, as indices into
#: four ascending keys of the column.
RELATIONS = {
    "equal": ((0, 1), (0, 1)),
    "nested": ((0, 3), (1, 2)),
    "overlapping": ((0, 2), (1, 3)),
    "disjoint": ((0, 1), (2, 3)),
    "touching": ((0, 1), (1, 2)),
}


@dataclass
class Subject:
    """One table under test: where it lives and which column is indexed."""

    database: object
    table: str
    alias: str
    column: str

    def __post_init__(self):
        data = self.database.table_data(self.table)
        #: The distinct non-NULL keys, ascending.
        values = data.column_values(self.column)
        self.keys = np.unique(values[~data.null_mask(self.column)])
        #: Four ascending keys that exist in the column.
        self.anchors = [int(self.keys[len(self.keys) * fifth // 5])
                        for fifth in (1, 2, 3, 4)]
        #: Literals worth comparing against: keys, their neighbours,
        #: and values outside the domain on both sides.
        picked = self.keys[:: max(len(self.keys) // 12, 1)].tolist()
        picked += [int(self.keys[0]) - 50, int(self.keys[-1]),
                   int(self.keys[-1]) + 50]
        self.literals = sorted({key + delta for key in picked
                                for delta in (-1, 0, 1)})

    @property
    def ref(self) -> str:
        return f"{self.alias}.{self.column}"

    def sql(self, where: str) -> str:
        return (f"SELECT COUNT(*), SUM({self.ref}), MIN({self.ref}) "
                f"FROM {self.table} {self.alias} WHERE {where}")


@pytest.fixture(scope="module")
def subjects(tiny_imdb):
    generated = generate_database(SyntheticDatabaseSpec(
        name="s1", seed=1, num_tables=3, min_rows=500, max_rows=2000))
    generated.create_index("t0_c0", "t0", "c0")
    nulls = int(generated.table_data("t0").null_mask("c0").sum())
    t0 = generated.table_data("t0")
    keys = t0.column_values("c0")[~t0.null_mask("c0")]
    assert nulls > 0 and len(np.unique(keys)) < len(keys), \
        "the generated subject lost its NULLs or its duplicate keys"

    connection = sqlite3.connect(":memory:")
    load_table(connection, generated, "t0")
    load_table(connection, tiny_imdb, "title")
    yield {"t0": Subject(generated, "t0", "t0", "c0"),
           "title": Subject(tiny_imdb, "title", "t", "id")}, connection
    connection.close()


def _run(database, query, options, compile_filters=True):
    plan = plan_query(database, query, options)
    result = Executor(database, compile_filters=compile_filters).execute(plan)
    return plan, tuple(float(result.relation.columns[f"agg{i}"][0])
                       for i in range(3))


def _engine_answers(subject: Subject, sql: str) -> dict[str, tuple]:
    query = parse_query(sql)
    database = subject.database
    sequential = PlannerOptions(enable_indexscan=False)
    answers = {
        "seq compiled": _run(database, query, sequential)[1],
        "seq interpreted": _run(database, query, sequential,
                                compile_filters=False)[1],
        "default": _run(database, query, PlannerOptions())[1],
        "default + rewrites": _run(
            database, query, PlannerOptions(enable_rewrites=True))[1],
    }
    if any(p.operator not in _NOT_A_RANGE for p in query.predicates):
        plan, answers["index"] = _run(
            database, query, PlannerOptions(enable_seqscan=False))
        assert isinstance(plan.root.children[0], IndexScan)
        try:
            answers["index + rewrites"] = _run(
                database, query, PlannerOptions(enable_seqscan=False,
                                                enable_rewrites=True))[1]
        except OptimizerError:
            pass  # the merged conjunction kept no range for the index
    return answers


def _same(left: float, right: float) -> bool:
    return left == right or (math.isnan(left) and math.isnan(right))


def check(subjects, table: str, where: str) -> None:
    found, connection = subjects
    subject = found[table]
    sql = subject.sql(where)
    expected = tuple(math.nan if value is None else float(value)
                     for value in connection.execute(sql).fetchone())
    for path, answer in _engine_answers(subject, sql).items():
        assert all(map(_same, answer, expected)), \
            f"{path}: {answer} != sqlite3 {expected} for {sql}"


def _predicate(ref: str, operator: str, low: int, high: int) -> str:
    """``operator`` over the anchor ``(low, high)``: ranges and sets use
    both ends, an upper bound the high end, everything else the low."""
    if operator == "BETWEEN":
        return f"{ref} BETWEEN {low} AND {high}"
    if operator == "IN":
        return f"{ref} IN ({low}, {high})"
    return f"{ref} {operator} {high if operator in ('<', '<=') else low}"


# ----------------------------------------------------------------------
# Named cases: each returned wrong rows through some path once.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("where", [
    "t.id > 100 AND t.id >= 100 AND t.id < 200",
    "t.id < 200 AND t.id <= 200 AND t.id > 100",
    "t.id > 50 AND t.id BETWEEN 100 AND 199",
    "t.id > 150 AND t.id = 120",
], ids=["gt-then-geq-reopens-the-bound", "lt-then-leq-reopens-the-bound",
        "between-keeps-the-exclusive-flag", "eq-overwrites-the-range"])
def test_conjunctions_an_index_range_once_misread(subjects, where):
    check(subjects, "title", where)


def test_index_scan_returns_no_null_keys(subjects):
    keys = subjects[0]["t0"].keys
    check(subjects, "t0",
          f"t0.c0 >= {int(keys[0]) - 1} AND t0.c0 <= {int(keys[-1]) + 1}")


# ----------------------------------------------------------------------
# The grid: every ordered operator pair under every bound relation.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("table", ["t0", "title"])
@pytest.mark.parametrize("relation", sorted(RELATIONS))
def test_every_operator_pair(subjects, table, relation):
    subject = subjects[0][table]
    keys = subject.anchors
    first, second = ([keys[i] for i in anchor]
                     for anchor in RELATIONS[relation])
    for left, right in itertools.product(OPERATORS, repeat=2):
        check(subjects, table,
              f"{_predicate(subject.ref, left, *first)} AND "
              f"{_predicate(subject.ref, right, *second)}")


# ----------------------------------------------------------------------
# Generated conjunctions of one to four predicates.
# ----------------------------------------------------------------------
_POSITIONS = st.integers(min_value=0, max_value=10_000)
_PREDICATES = st.lists(
    st.tuples(st.sampled_from(OPERATORS), _POSITIONS, _POSITIONS, _POSITIONS),
    min_size=1, max_size=4)


@pytest.mark.parametrize("table", ["t0", "title"])
@settings(max_examples=150, deadline=None)
@given(drawn=_PREDICATES)
def test_generated_conjunctions(subjects, table, drawn):
    subject = subjects[0][table]
    pool = subject.literals
    parts = []
    for operator, *positions in drawn:
        chosen = sorted(pool[position % len(pool)] for position in positions)
        if operator == "IN":
            parts.append(f"{subject.ref} IN "
                         f"({', '.join(map(str, chosen))})")
        else:
            parts.append(_predicate(subject.ref, operator,
                                    chosen[0], chosen[-1]))
    check(subjects, table, " AND ".join(parts))
