"""Every output of the rewrite phase, pinned by one digest.

``REWRITE_DIGEST`` is a SHA-256 over everything
:meth:`RewritePlanner.rewrite` returns (the rewritten ``Query``,
``scan_columns`` in order, and the trace's step names) plus the
``plan_signature`` and the ``est_rows`` / ``est_cost`` / ``est_width``
of every node of the plan the rewriting planner builds.  The inputs are
generated workloads on four small generated training databases, as SQL
text parsed back, the way the collection benchmark feeds them.

The digest was computed on the rule engine the one pass replaced (its
firings mapped to their rule names) and equals the one pass's: a change
that moves one bit of a rewrite fails here.  Print the current value
with::

    PYTHONPATH=src python tests/optimizer/test_rewrite_identity.py
"""

import hashlib

import pytest

from repro.db import generate_database, generate_training_database_specs
from repro.optimizer import Planner, PlannerOptions
from repro.optimizer.rewrite import RewritePlanner
from repro.plans.plan import plan_signature, walk_plan
from repro.sql import parse_query, query_to_sql
from repro.workload.generator import WorkloadSpec, generate_workload

pytestmark = pytest.mark.rewrite

REWRITE_DIGEST = \
    "b40daae375c644a5d5a2286c621401231be9759ef97e91ada820c1ebf0f0d15a"

DATABASES = 4
QUERIES_PER_DATABASE = 40


def _rewrite_digest() -> str:
    digest = hashlib.sha256()
    specs = generate_training_database_specs(
        DATABASES, base_seed=3, min_rows=200, max_rows=900)
    for index, spec in enumerate(specs):
        database = generate_database(spec)
        queries = generate_workload(database, WorkloadSpec(
            num_queries=QUERIES_PER_DATABASE, seed=100 + index))
        rewriter = RewritePlanner(schema=database.schema)
        planner = Planner(database, PlannerOptions(enable_rewrites=True))
        for query in queries:
            query = parse_query(query_to_sql(query))
            result = rewriter.rewrite(query)
            plan = planner.plan(query)
            estimates = [(node.est_rows, node.est_cost, node.est_width)
                         for node in walk_plan(plan.root)]
            digest.update(repr((
                result.query,
                list(result.scan_columns.items()),
                result.trace.firings,
                plan_signature(plan.root),
                estimates,
            )).encode())
    return digest.hexdigest()


def test_every_rewrite_output_is_bit_identical():
    assert _rewrite_digest() == REWRITE_DIGEST


if __name__ == "__main__":
    print(_rewrite_digest())
