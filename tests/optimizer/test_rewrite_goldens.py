"""Golden-snapshot regression tests for the logical rewrite phase.

The rewritten output of a fixed seed query set is frozen on disk
(``tests/optimizer/goldens/rewritten-plans.json``): the SQL text, the
rewritten query's SQL, the steps that fired, the pruned scan columns
and the EXPLAIN of the physical plan built from it.  Any change to a
step or to their order silently changes every rewritten plan; these
tests make such drifts fail loudly instead.

If a rewrite change is *intentional*, regenerate the snapshot and
commit it together with the change::

    PYTHONPATH=src python tests/optimizer/test_rewrite_goldens.py --regen
"""

import json
import sys
from pathlib import Path

import pytest

from repro.db import make_imdb_database
from repro.optimizer import Planner, PlannerOptions
from repro.optimizer.rewrite import RewritePlanner
from repro.plans.explain import explain_plan
from repro.workload import make_benchmark_workload

pytestmark = pytest.mark.rewrite

GOLDEN_PATH = (Path(__file__).resolve().parent / "goldens" /
               "rewritten-plans.json")

REGEN_HINT = (
    "rewrite output changed; if intentional, regenerate the snapshot "
    "with `PYTHONPATH=src python tests/optimizer/test_rewrite_goldens.py "
    "--regen` and commit it with the rewrite change"
)


def _seed_snapshot() -> list[dict]:
    """The frozen query set: fully deterministic in its seeds."""
    database = make_imdb_database(scale=0.04, seed=7)
    queries = []
    for name in ("scale", "job-light", "synthetic"):
        queries.extend(make_benchmark_workload(database, name, 4, seed=13))
    rewriter = RewritePlanner(schema=database.schema)
    planner = Planner(database, PlannerOptions(enable_rewrites=True))
    entries = []
    for query in queries:
        result = rewriter.rewrite(query)
        plan = planner.plan(query)
        trace = plan.metadata["rewrite_trace"]
        entries.append({
            "sql": str(query),
            "rewritten_sql": str(result.query),
            "rules_fired": list(trace.firings),
            "scan_columns": {alias: list(cols) for alias, cols
                             in sorted(result.scan_columns.items())},
            "physical_plan": explain_plan(plan),
        })
    return entries


def regenerate() -> None:
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    entries = _seed_snapshot()
    GOLDEN_PATH.write_text(json.dumps(entries, indent=2, sort_keys=True) +
                           "\n")
    print(f"wrote {GOLDEN_PATH} ({len(entries)} queries)")


def test_rewrites_match_golden_snapshot():
    assert GOLDEN_PATH.is_file(), \
        f"golden snapshot {GOLDEN_PATH} is missing; {REGEN_HINT}"
    golden = json.loads(GOLDEN_PATH.read_text())
    fresh = _seed_snapshot()
    assert len(golden) == len(fresh), f"query count drifted; {REGEN_HINT}"
    for index, (want, got) in enumerate(zip(golden, fresh)):
        assert want.keys() == got.keys(), \
            f"q{index}: snapshot key set drifted; {REGEN_HINT}"
        for key in want:
            assert want[key] == got[key], (
                f"q{index} ({want['sql']}): {key} drifted from the golden "
                f"snapshot;\n--- golden ---\n{want[key]}\n--- fresh ---\n"
                f"{got[key]}\n{REGEN_HINT}"
            )


def test_goldens_are_nontrivial():
    """Guard against freezing an empty or degenerate query set."""
    golden = json.loads(GOLDEN_PATH.read_text())
    assert len(golden) == 12
    fired = {rule for entry in golden for rule in entry["rules_fired"]}
    # Every step must be exercised by the frozen set.
    assert fired == {"predicate-pushdown", "filter-merge",
                     "transitive-joins", "projection-pruning"}
    # Rewrites actually change some query (not a no-op set).
    assert any(entry["rewritten_sql"] != entry["sql"] for entry in golden)
    assert any(entry["scan_columns"] for entry in golden)


if __name__ == "__main__":
    if "--regen" in sys.argv:
        regenerate()
    else:
        print(__doc__)
        sys.exit(1)
