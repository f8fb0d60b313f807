"""What-if planning with hypothetical indexes (paper Section 4.1).

A zero-shot cost model in "What-If" mode answers: *how would this query's
runtime change if a certain index existed?*  The mechanism: register a
hypothetical index (metadata only, like Postgres' HypoPG), re-plan the
query — the planner may now pick index scans / index nested-loop joins —
and feed the what-if plan to the zero-shot model.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

from repro.db.database import Database
from repro.optimizer.planner import Planner, PlannerOptions
from repro.plans.plan import PhysicalPlan
from repro.sql.ast import Query

__all__ = ["IndexSpec", "WhatIfPlanner"]


@dataclass(frozen=True)
class IndexSpec:
    """A candidate index for what-if planning."""

    table_name: str
    column_name: str

    @property
    def default_name(self) -> str:
        return f"whatif_{self.table_name}_{self.column_name}"


class WhatIfPlanner:
    """Plans queries under hypothetical physical designs."""

    def __init__(self, database: Database):
        self.database = database

    @contextlib.contextmanager
    def hypothetical_indexes(self, specs: list[IndexSpec]):
        """Temporarily register hypothetical indexes."""
        created: list[str] = []
        try:
            for spec in specs:
                if self.database.indexes_on(spec.table_name, spec.column_name):
                    continue  # a real (or earlier hypothetical) index exists
                self.database.create_hypothetical_index(
                    spec.default_name, spec.table_name, spec.column_name
                )
                created.append(spec.default_name)
            yield
        finally:
            for name in created:
                self.database.drop_index(name)

    def plan_with_indexes(self, query: Query,
                          specs: list[IndexSpec]) -> PhysicalPlan:
        """Plan ``query`` as if the given indexes existed."""
        with self.hypothetical_indexes(specs):
            plan = Planner(self.database).plan(query)
        plan.metadata["whatif_indexes"] = tuple(specs)
        return plan

    def plan_without_indexes(self, query: Query) -> PhysicalPlan:
        """Plan ``query`` using only real indexes (the baseline plan)."""
        options = PlannerOptions(use_hypothetical_indexes=False)
        return Planner(self.database, options).plan(query)
