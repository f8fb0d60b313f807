"""Greedy index advisor driven by zero-shot what-if predictions.

Classical index advisors (AutoAdmin and friends) enumerate candidate
indexes and evaluate them with the optimizer's what-if cost estimates.
The paper's proposal: replace those inexact classical estimates with a
zero-shot cost model — *without* collecting any training data on the
target database.  What-if mode (Section 4.1): register hypothetical
indexes (metadata only, like Postgres' HypoPG), plan with the ordinary
planner, which may now pick index scans, and price the plans while the
indexes are registered, since the featurizer reads their statistics.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field

import numpy as np

from repro.db.database import Database
from repro.errors import ModelError
from repro.models.api import CostEstimator
from repro.models.cardinality import require_deployable
from repro.optimizer.planner import Planner
from repro.sql.ast import Query

__all__ = ["AdvisorRecommendation", "IndexAdvisor", "IndexSpec",
           "hypothetical_indexes"]

#: The greedy loop stops below this relative gain of the best candidate.
_MIN_IMPROVEMENT = 0.01


@dataclass(frozen=True)
class IndexSpec:
    """A candidate index for what-if planning."""

    table_name: str
    column_name: str

    @property
    def default_name(self) -> str:
        return f"whatif_{self.table_name}_{self.column_name}"


@contextlib.contextmanager
def hypothetical_indexes(database: Database, specs: list[IndexSpec]):
    """Temporarily register hypothetical indexes on ``database``."""
    created: list[str] = []
    try:
        for spec in specs:
            if database.indexes_on(spec.table_name, spec.column_name):
                continue  # a real (or earlier hypothetical) index exists
            database.create_hypothetical_index(
                spec.default_name, spec.table_name, spec.column_name
            )
            created.append(spec.default_name)
        yield
    finally:
        for name in created:
            database.drop_index(name)


@dataclass
class AdvisorRecommendation:
    """Result of one advisor run."""

    indexes: list[IndexSpec] = field(default_factory=list)
    baseline_seconds: float = 0.0
    predicted_seconds: float = 0.0

    @property
    def predicted_speedup(self) -> float:
        if self.predicted_seconds <= 0:
            return 1.0
        return self.baseline_seconds / self.predicted_seconds


class IndexAdvisor:
    """Greedy what-if index selection for a given workload.

    ``estimator`` is a fitted :class:`~repro.models.api.CostEstimator`
    over estimated cardinalities: hypothetical plans never run.
    """

    def __init__(self, database: Database, estimator: CostEstimator):
        require_deployable(estimator, "what-if estimation")
        self.database = database
        self.estimator = estimator
        self._planner = Planner(database)

    # ------------------------------------------------------------------
    def _estimate_workload(self, queries: list[Query],
                           indexes: list[IndexSpec]) -> float:
        """Predicted workload seconds under ``indexes``, priced in one
        batch (bit-identical to pricing query by query)."""
        if not queries:
            raise ModelError("advisor needs a non-empty workload")
        with hypothetical_indexes(self.database, indexes):
            plans = [self._planner.plan(query) for query in queries]
            return float(np.sum(
                self.estimator.predict_runtime(plans, self.database)))

    def _candidate_indexes(self, queries: list[Query]) -> list[IndexSpec]:
        """Columns referenced by predicates or join conditions, minus
        columns that already carry a real index."""
        seen: set[tuple[str, str]] = set()
        candidates: list[IndexSpec] = []

        def add(table_alias: str, column: str, query: Query) -> None:
            table_name = query.table_ref(table_alias).table_name
            key = (table_name, column)
            if key in seen:
                return
            seen.add(key)
            if self.database.indexes_on(table_name, column,
                                        include_hypothetical=False):
                return
            candidates.append(IndexSpec(table_name, column))

        for query in queries:
            for predicate in query.predicates:
                add(predicate.column.table, predicate.column.column, query)
            for join in query.joins:
                add(join.left.table, join.left.column, query)
                add(join.right.table, join.right.column, query)
        return candidates

    # ------------------------------------------------------------------
    def recommend(self, queries: list[Query],
                  max_indexes: int = 3) -> AdvisorRecommendation:
        """Greedily pick up to ``max_indexes`` indexes.

        Each round evaluates every remaining candidate *added to* the
        currently selected set and keeps the one with the largest
        predicted workload improvement; stops early when the best gain
        falls below ``_MIN_IMPROVEMENT`` (relative).
        """
        if max_indexes < 1:
            raise ModelError("max_indexes must be at least 1")

        baseline = self._estimate_workload(queries, [])
        selected: list[IndexSpec] = []
        current = baseline
        remaining = self._candidate_indexes(queries)

        while remaining and len(selected) < max_indexes:
            best_candidate = None
            best_seconds = current
            for candidate in remaining:
                seconds = self._estimate_workload(
                    queries, selected + [candidate]
                )
                if seconds < best_seconds:
                    best_seconds = seconds
                    best_candidate = candidate
            if best_candidate is None:
                break
            if (current - best_seconds) / max(current, 1e-12) \
                    < _MIN_IMPROVEMENT:
                break
            selected.append(best_candidate)
            remaining.remove(best_candidate)
            current = best_seconds

        return AdvisorRecommendation(
            indexes=selected,
            baseline_seconds=baseline,
            predicted_seconds=current,
        )
