"""Every output of the rewrite phase, pinned by one digest.

``REWRITE_DIGEST`` is a SHA-256 over everything
:meth:`RewritePlanner.rewrite` returns — the rewritten ``Query``,
``scan_columns`` (in order), every ``RuleFiring``, the trace's node
counts, notes, truncation flag and firing counts, and the logical tree
(dataclass repr and rendering) — plus the ``plan_signature`` and the
``est_rows`` / ``est_cost`` / ``est_width`` of every node of the plan
the rewriting planner builds.  The inputs are generated workloads on
four small generated training databases, as SQL text parsed back, the
way the collection benchmark feeds them.

The digest was computed before the rewrite phase learned its fast paths
(pre-order tuples on the nodes, one rebuild per firing, cheap no-op
checks) and is asserted ever since: a speed-up that moves one bit of a
rewrite fails here.  Print the current value with::

    PYTHONPATH=src python tests/optimizer/test_rewrite_identity.py
"""

import hashlib

import pytest

from repro.db import generate_database, generate_training_database_specs
from repro.optimizer import Planner, PlannerOptions
from repro.optimizer.rewrite import RewritePlanner, logical_plan_repr
from repro.plans.plan import plan_signature, walk_plan
from repro.sql import parse_query, query_to_sql
from repro.workload.generator import WorkloadSpec, generate_workload

pytestmark = pytest.mark.rewrite

REWRITE_DIGEST = \
    "c11f07da500379463458cdc85d259a4af62e2bcef36985fff3711f215c258b61"

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
            trace = result.trace
            plan = planner.plan(query)
            estimates = [(node.est_rows, node.est_cost, node.est_width)
                         for node in walk_plan(plan.root)]
            digest.update(repr((
                result.query,
                list(result.scan_columns.items()),
                trace.firings,
                trace.nodes_before,
                trace.nodes_after,
                trace.notes,
                trace.truncated,
                list(trace.firing_counts.items()),
                result.logical_plan,
                logical_plan_repr(result.logical_plan),
                plan_signature(plan.root),
                estimates,
            )).encode())
    return digest.hexdigest()


def test_every_rewrite_output_is_bit_identical():
    assert _rewrite_digest() == REWRITE_DIGEST


if __name__ == "__main__":
    print(_rewrite_digest())
