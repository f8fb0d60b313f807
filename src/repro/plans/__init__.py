"""Physical query plans.

Plan nodes model *physical* operators (the paper's encoding operates on
physical plans, cf. Figure 2): sequential and index scans, hash and
nested-loop joins, and aggregates.  Nodes carry both
estimated cardinalities (set by the optimizer) and actual cardinalities
(set by the executor), because the zero-shot model is evaluated with
either source (Table 1 of the paper).
"""

from repro.plans.explain import explain_plan
from repro.plans.operators import (
    HashAggregate,
    HashBuild,
    HashJoin,
    IndexScan,
    NestedLoopJoin,
    PlainAggregate,
    PlanNode,
    SeqScan,
)
from repro.plans.plan import PhysicalPlan, plan_signature, walk_plan

__all__ = [
    "HashAggregate",
    "HashBuild",
    "HashJoin",
    "IndexScan",
    "NestedLoopJoin",
    "PhysicalPlan",
    "PlainAggregate",
    "PlanNode",
    "SeqScan",
    "explain_plan",
    "plan_signature",
    "walk_plan",
]
