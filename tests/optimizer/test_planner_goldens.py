"""Golden plan identities of the cost-based planner.

For a fixed-seed generated workload on ``tiny_imdb``, planned with
rewrites off and on under each of the plan selector's four hint sets,
the chosen plan's :func:`repro.plans.plan_signature` digest and its
pre-order ``est_rows`` / ``est_cost`` are frozen on disk
(``tests/optimizer/goldens/planner-plans.json``).  Planning is
deterministic, so any refactor of the DP search, the join candidates or
the cost arithmetic must reproduce every plan **exactly** — which
operator won, in which shape, at which price.
(``rewritten-plans.json`` pins only the rewrites-on default plans.)

If a plan change is *intentional*, regenerate the snapshot and commit
it together with the change::

    PYTHONPATH=src python tests/optimizer/test_planner_goldens.py --regen
"""

import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.db import make_imdb_database
from repro.errors import OptimizerError
from repro.optimizer import Planner, PlannerOptions
from repro.optimizer.learned_planner import _HINT_SETS
from repro.plans import plan_signature
from repro.workload import make_benchmark_workload

GOLDEN_PATH = (Path(__file__).resolve().parent / "goldens" /
               "planner-plans.json")

REGEN_HINT = (
    "planner output changed; if intentional, regenerate the snapshot "
    "with `PYTHONPATH=src python tests/optimizer/test_planner_goldens.py "
    "--regen` and commit it with the planner change"
)


def _arm_name(rewrites: bool, hints: dict) -> str:
    disabled = ",".join(sorted(hints)) or "default"
    return f"rewrites={'on' if rewrites else 'off'}/{disabled}"


def _snapshot() -> list[dict]:
    """The frozen workload x arms: fully deterministic in its seeds."""
    database = make_imdb_database(scale=0.04, seed=7)
    queries = []
    for name in ("scale", "job-light", "synthetic"):
        queries.extend(make_benchmark_workload(database, name, 10, seed=13))
    planners = {
        _arm_name(rewrites, hints): Planner(database, replace(
            PlannerOptions(enable_rewrites=rewrites), **hints))
        for rewrites in (False, True) for hints in _HINT_SETS
    }
    entries = []
    for query in queries:
        plans = {}
        for arm, planner in planners.items():
            try:
                nodes = planner.plan(query).nodes()
            except OptimizerError:
                plans[arm] = None  # this hint set admits no plan
                continue
            digest = hashlib.sha256(
                repr(plan_signature(nodes[0])).encode()).hexdigest()[:16]
            plans[arm] = {
                "signature": digest,
                "est_rows": [node.est_rows for node in nodes],
                "est_cost": [node.est_cost for node in nodes],
            }
        entries.append({"sql": str(query), "plans": plans})
    return entries


def regenerate() -> None:
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    entries = _snapshot()
    with open(GOLDEN_PATH, "w") as handle:
        # ``json`` writes floats with ``repr``, which round-trips every
        # double exactly.
        json.dump(entries, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN_PATH} ({len(entries)} queries)")


@pytest.fixture(scope="module")
def golden():
    assert GOLDEN_PATH.is_file(), \
        f"golden snapshot {GOLDEN_PATH} is missing; {REGEN_HINT}"
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


def test_plans_match_golden_snapshot(golden):
    fresh = _snapshot()
    assert [entry["sql"] for entry in fresh] == \
        [entry["sql"] for entry in golden], f"workload drifted; {REGEN_HINT}"
    for want, got in zip(golden, fresh):
        assert want["plans"].keys() == got["plans"].keys(), REGEN_HINT
        for arm, plan in want["plans"].items():
            assert got["plans"][arm] == plan, (
                f"{arm} plan of {want['sql']} drifted from the golden "
                f"snapshot; {REGEN_HINT}"
            )


def test_goldens_are_nontrivial(golden):
    """Guard against freezing a degenerate workload: joins are present,
    and the arms really steer the search into different plans."""
    assert len(golden) == 30
    arms = {_arm_name(rewrites, hints)
            for rewrites in (False, True) for hints in _HINT_SETS}
    assert all(set(entry["plans"]) == arms for entry in golden)
    assert any(len(plan["est_rows"]) >= 8
               for entry in golden for plan in entry["plans"].values()
               if plan is not None)
    for entry in golden:
        planned = [p for p in entry["plans"].values() if p is not None]
        assert planned, entry["sql"]
    assert any(
        len({p["signature"] for p in entry["plans"].values()
             if p is not None}) >= 4
        for entry in golden)


if __name__ == "__main__":
    if "--regen" in sys.argv:
        regenerate()
    else:
        print(__doc__)
        sys.exit(1)
