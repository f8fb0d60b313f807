"""The :class:`PhysicalPlan` wrapper and traversal helpers."""

from __future__ import annotations

from dataclasses import dataclass, field, fields as dataclass_fields
from typing import Iterator

from repro.errors import PlanError
from repro.plans.operators import PlanNode
from repro.sql.ast import Query

__all__ = ["PhysicalPlan", "plan_signature", "walk_plan"]


def walk_plan(root: PlanNode) -> Iterator[PlanNode]:
    """Depth-first pre-order traversal of a plan tree."""
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children))


def plan_signature(node: PlanNode) -> tuple:
    """A structural fingerprint of an executable subtree.

    Two subtrees with equal signatures produce identical relations when
    executed against the same (unmodified) database, which is what makes
    build-side memoization sound and what candidate de-duplication and
    plan agreement compare.  Estimates and actuals are excluded;
    everything semantically relevant (operator types, tables, filters,
    keys, index names) is captured via the operators' dataclass fields.
    """
    skip = {"children", "est_rows", "est_width", "est_cost", "actual_rows",
            "actual_ms"}
    params = tuple(
        (f.name, repr(getattr(node, f.name)))
        for f in dataclass_fields(node) if f.name not in skip
    )
    return (type(node).__name__, params,
            tuple(plan_signature(child) for child in node.children))


@dataclass
class PhysicalPlan:
    """A physical plan for a query on a specific database.

    A plan is a *tree*: every node object sits in exactly one place of
    exactly one plan (construction raises :class:`PlanError` on a
    repeat).  The executor annotates nodes in place and the simulator
    and featurizers key per-call maps on ``id(node)``, so a node that
    occurred twice would have one slot for two positions.

    Attributes
    ----------
    root:
        The plan's root operator (usually an aggregate).
    query:
        The originating query.
    database_name:
        Name of the database the plan was built for (plans are not
        portable across databases: operators embed table references).
    """

    root: PlanNode
    query: Query
    database_name: str
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.root.validate()
        seen: set[int] = set()
        for node in walk_plan(self.root):
            if id(node) in seen:
                raise PlanError(
                    f"{node.operator_name} node occurs twice in the plan; "
                    "a plan is a tree, build a second node instead"
                )
            seen.add(id(node))

    def nodes(self) -> list[PlanNode]:
        return list(walk_plan(self.root))

    @property
    def num_nodes(self) -> int:
        return len(self.nodes())

    @property
    def total_cost(self) -> float:
        """The optimizer's cumulative cost at the root."""
        return self.root.est_cost

    def require_executed(self) -> None:
        if any(node.actual_rows is None for node in walk_plan(self.root)):
            raise PlanError(
                "plan has not been executed; actual cardinalities are missing"
            )

    def reset_actuals(self) -> None:
        """Clear executor annotations (for re-execution)."""
        for node in self.nodes():
            node.actual_rows = None
            node.actual_ms = None
