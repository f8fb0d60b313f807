"""Greedy index advisor driven by zero-shot what-if predictions.

Classical index advisors (AutoAdmin and friends) enumerate candidate
indexes and evaluate them with the optimizer's what-if cost estimates.
The paper's proposal: replace those inexact classical estimates with a
zero-shot cost model — *without* collecting any training data on the
target database.  The advisor below implements the classical greedy
loop on top of :class:`~repro.tuning.whatif_model.ZeroShotWhatIfEstimator`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.db.database import Database
from repro.errors import ModelError
from repro.models.api import CostEstimator
from repro.optimizer.whatif import IndexSpec
from repro.sql.ast import Query
from repro.tuning.whatif_model import ZeroShotWhatIfEstimator

__all__ = ["AdvisorRecommendation", "IndexAdvisor"]


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
    """Greedy what-if index selection for a given workload."""

    def __init__(self, database: Database, estimator: CostEstimator):
        self.database = database
        self.estimator = ZeroShotWhatIfEstimator(database, estimator)

    # ------------------------------------------------------------------
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
                  max_indexes: int = 3,
                  min_improvement: float = 0.01) -> AdvisorRecommendation:
        """Greedily pick up to ``max_indexes`` indexes.

        Each round evaluates every remaining candidate *added to* the
        currently selected set and keeps the one with the largest
        predicted workload improvement; stops early when the best gain
        falls below ``min_improvement`` (relative).
        """
        if not queries:
            raise ModelError("advisor needs a non-empty workload")
        if max_indexes < 1:
            raise ModelError("max_indexes must be at least 1")

        baseline = self.estimator.estimate_workload(queries)
        selected: list[IndexSpec] = []
        current = baseline
        remaining = self._candidate_indexes(queries)

        while remaining and len(selected) < max_indexes:
            best_candidate = None
            best_seconds = current
            for candidate in remaining:
                seconds = self.estimator.estimate_workload(
                    queries, selected + [candidate]
                )
                if seconds < best_seconds:
                    best_seconds = seconds
                    best_candidate = candidate
            if best_candidate is None:
                break
            if (current - best_seconds) / max(current, 1e-12) < min_improvement:
                break
            selected.append(best_candidate)
            remaining.remove(best_candidate)
            current = best_seconds

        return AdvisorRecommendation(
            indexes=selected,
            baseline_seconds=baseline,
            predicted_seconds=current,
        )
