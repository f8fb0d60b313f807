"""Rewrite-phase ablation: what does the logical rewrite buy?

Plans and executes the same workload with the rewrite phase off and on
and reports the quantities the phase is supposed to improve:

* **summed intermediate rows** — actual rows produced by every
  non-leaf operator (joins, builds, sorts, aggregates); smaller
  intermediates are the direct payoff of pushdown + transitive join
  inference,
* **summed scan width bytes** — estimated scan output width; smaller
  is projection pruning at work,
* **total optimizer cost** — must not regress,
* **rule firing counts** — from the per-query
  :class:`~repro.optimizer.rewrite.RewriteTrace`.

This is deliberately execution-only (no model training): it isolates
the planner change so corpus-collection experiments can cite it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.db.database import Database
from repro.engine import execute_plan
from repro.optimizer import Planner, PlannerOptions
from repro.plans.plan import PhysicalPlan
from repro.sql.ast import Query

__all__ = ["RewriteAblationResult", "intermediate_rows", "run_rewrite_ablation"]


def intermediate_rows(plan: PhysicalPlan) -> float:
    """Sum of actual rows over non-leaf operators (requires execution)."""
    plan.require_executed()
    return float(sum(node.actual_rows for node in plan.nodes()
                     if not node.is_leaf))


def _scan_width_bytes(plan: PhysicalPlan) -> float:
    return float(sum(node.est_width for node in plan.nodes() if node.is_leaf))


@dataclass
class RewriteAblationResult:
    """Aggregates over one workload, rewrites off vs on."""

    queries: int = 0
    baseline_intermediate_rows: float = 0.0
    rewritten_intermediate_rows: float = 0.0
    baseline_cost: float = 0.0
    rewritten_cost: float = 0.0
    baseline_scan_width: float = 0.0
    rewritten_scan_width: float = 0.0
    rule_firings: dict[str, int] = field(default_factory=dict)

    @property
    def _intermediate_row_reduction(self) -> float:
        """Baseline / rewritten summed intermediate rows (>1 is a win)."""
        if self.rewritten_intermediate_rows <= 0:
            return float("inf")
        return self.baseline_intermediate_rows / self.rewritten_intermediate_rows

    def format(self) -> str:
        lines = [
            "rewrite ablation "
            f"({self.queries} queries)",
            f"  intermediate rows: {self.baseline_intermediate_rows:,.0f} -> "
            f"{self.rewritten_intermediate_rows:,.0f} "
            f"({self._intermediate_row_reduction:.2f}x)",
            f"  optimizer cost:    {self.baseline_cost:,.0f} -> "
            f"{self.rewritten_cost:,.0f}",
            f"  scan width bytes:  {self.baseline_scan_width:,.0f} -> "
            f"{self.rewritten_scan_width:,.0f}",
        ]
        for rule, count in sorted(self.rule_firings.items()):
            lines.append(f"  fired {rule}: {count}")
        return "\n".join(lines)


def run_rewrite_ablation(database: Database, queries: list[Query],
                         options: PlannerOptions | None = None
                         ) -> RewriteAblationResult:
    """Plan + execute ``queries`` with rewrites off and on.

    ``options`` supplies the non-rewrite knobs (both sides share them);
    the off side forces ``enable_rewrites=False`` and the on side
    ``enable_rewrites=True``.
    """
    from dataclasses import replace

    base = options or PlannerOptions()
    off = Planner(database, replace(base, enable_rewrites=False))
    on = Planner(database, replace(base, enable_rewrites=True))

    result = RewriteAblationResult()
    for query in queries:
        plan_off = off.plan(query)
        plan_on = on.plan(query)
        execute_plan(database, plan_off)
        execute_plan(database, plan_on)
        result.queries += 1
        result.baseline_intermediate_rows += intermediate_rows(plan_off)
        result.rewritten_intermediate_rows += intermediate_rows(plan_on)
        result.baseline_cost += plan_off.total_cost
        result.rewritten_cost += plan_on.total_cost
        result.baseline_scan_width += _scan_width_bytes(plan_off)
        result.rewritten_scan_width += _scan_width_bytes(plan_on)
        trace = plan_on.metadata.get("rewrite_trace")
        if trace is not None:
            for rule, count in trace.firing_counts.items():
                result.rule_firings[rule] = \
                    result.rule_firings.get(rule, 0) + count
    return result


def main() -> None:  # pragma: no cover - CLI convenience
    from repro.db import make_imdb_database
    from repro.workload import make_benchmark_workload

    database = make_imdb_database(scale=0.04, seed=7)
    queries: list[Query] = []
    for name in ("scale", "job-light", "synthetic"):
        queries.extend(make_benchmark_workload(database, name, 10, seed=13))
    print(run_rewrite_ablation(database, queries).format())


if __name__ == "__main__":  # pragma: no cover
    main()
