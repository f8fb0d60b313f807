"""EXPLAIN-style pretty printing of physical plans."""

from __future__ import annotations

from repro.plans.operators import PlanNode
from repro.plans.plan import PhysicalPlan

__all__ = ["explain_plan"]


def _format_node(node: PlanNode, depth: int, lines: list[str]) -> None:
    indent = "  " * depth
    arrow = "-> " if depth else ""
    parts = [f"{indent}{arrow}{node.label()}"]
    details = [f"est_rows={node.est_rows:.0f}", f"width={node.est_width:.0f}",
               f"cost={node.est_cost:.1f}"]
    if node.actual_rows is not None:
        details.append(f"actual_rows={node.actual_rows}")
    if node.actual_ms is not None:
        details.append(f"time={node.actual_ms:.3f}ms")
    parts.append(f"  ({', '.join(details)})")
    lines.append("".join(parts))
    for child in node.children:
        _format_node(child, depth + 1, lines)


def explain_plan(plan: PhysicalPlan | PlanNode) -> str:
    """Render a plan tree the way ``EXPLAIN (ANALYZE)`` would."""
    root = plan.root if isinstance(plan, PhysicalPlan) else plan
    lines: list[str] = []
    _format_node(root, 0, lines)
    return "\n".join(lines)
