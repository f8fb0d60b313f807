"""Table 1: Q-errors (median / 95th / max) of zero-shot models.

Rows *Scale*, *Synthetic*, *JOB-light* evaluate plain cost estimation on
the unseen IMDB database; row *Index* evaluates the What-If mode
(Section 4.1): the model estimates runtimes of queries *as if a certain
index existed* — on a database it has never seen, with indexes it has
never seen.

Ground truth for the Index row: the index is actually created on IMDB,
the query re-planned (now using index scans / index nested-loop joins),
executed and simulated.  The model only sees the what-if plan.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ExperimentError
from repro.experiments.figure3 import evaluate_zero_shot
from repro.experiments.setup import (
    ExperimentContext,
    ExperimentScale,
    build_context,
    experiment_main,
    score,
)
from repro.featurize.graph import CardinalitySource
from repro.models.metrics import QErrorStats
from repro.workload import WorkloadRunner, make_benchmark_workload

__all__ = ["run_table1", "format_table1"]

_BENCHMARK_OF_ROW = {"Scale": "scale", "Synthetic": "synthetic",
                     "JOB-light": "job-light"}


def _build_index_evaluation(context: ExperimentContext, seed: int):
    """Create the what-if index workload on IMDB.

    For each query, an index is created on a randomly selected predicate
    attribute of that query (as in the paper), the query re-planned and
    executed under it, then the index is dropped.  Returns per-query
    (encoded-sample-per-source, truth) pairs; plans are encoded through
    the zero-shot estimators *while the index exists* (the encode step
    reads live index statistics), ready for batched
    :meth:`~repro.models.api.CostEstimator.predict_encoded`.
    """
    rng = np.random.default_rng(seed)
    queries = make_benchmark_workload(
        context.imdb, "scale", context.scale.evaluation_queries, seed=seed
    )
    evaluated = []
    for query in queries:
        # Any predicate attribute can carry the index (categorical
        # equality benefits from a B-tree just like numeric ranges).
        candidates = [p.column for p in query.predicates]
        if not candidates:
            continue
        target = candidates[int(rng.integers(0, len(candidates)))]
        table_name = query.table_ref(target.table).table_name
        index_name = f"whatif_eval_{table_name}_{target.column}"
        if context.imdb.indexes_on(table_name, target.column):
            index_created = False
        else:
            context.imdb.create_index(index_name, table_name, target.column)
            index_created = True
        try:
            runner = WorkloadRunner(context.imdb,
                                    seed=int(rng.integers(0, 2**31 - 1)))
            record = runner.run_query(query)
            encoded = {}
            for source in (CardinalitySource.ESTIMATED,
                           CardinalitySource.ACTUAL):
                encoded[source] = context.estimator(source).encode_plans(
                    [record.plan], context.imdb
                )[0]
            evaluated.append((encoded, record.runtime_seconds))
        finally:
            if index_created:
                context.imdb.drop_index(index_name)
    if not evaluated:
        raise ExperimentError("index evaluation produced no queries")
    return evaluated


def run_table1(scale: ExperimentScale | None = None,
               context: ExperimentContext | None = None
               ) -> dict[str, dict[CardinalitySource, QErrorStats]]:
    """Regenerate Table 1: row name -> source -> Q-error stats, the rows
    in the paper's order."""
    if context is None:
        context = build_context(scale)
    result = {}

    for row, benchmark in _BENCHMARK_OF_ROW.items():
        result[row] = {
            source: evaluate_zero_shot(context, benchmark, source)
            for source in (CardinalitySource.ACTUAL,
                           CardinalitySource.ESTIMATED)
        }

    index_evaluation = _build_index_evaluation(
        context, seed=context.scale.seed + 99
    )
    truths = np.array([truth for _, truth in index_evaluation])
    result["Index"] = {}
    for source in (CardinalitySource.ACTUAL, CardinalitySource.ESTIMATED):
        encoded = [sample[source] for sample, _ in index_evaluation]
        result["Index"][source] = score(np.exp(
            context.estimator(source).predict_encoded(encoded)), truths)
    return result


def format_table1(result: dict[str, dict[CardinalitySource, QErrorStats]]
                  ) -> str:
    """Render Table 1 exactly like the paper (median / 95th / max)."""
    lines = [
        "Table 1 — Estimation errors (Q-errors) of zero-shot models",
        "=" * 78,
        f"{'Workload':<12s} | {'Zero-Shot (Exact Card.)':^28s} | "
        f"{'Zero-Shot (Estimated Card.)':^28s}",
        f"{'':<12s} | {'median':>8s} {'95th':>8s} {'max':>8s}  | "
        f"{'median':>8s} {'95th':>8s} {'max':>8s}",
        "-" * 78,
    ]
    for row_name, row in result.items():
        exact = row[CardinalitySource.ACTUAL]
        estimated = row[CardinalitySource.ESTIMATED]
        lines.append(
            f"{row_name:<12s} | {exact.median:8.2f} {exact.percentile95:8.2f} "
            f"{exact.maximum:8.2f}  | {estimated.median:8.2f} "
            f"{estimated.percentile95:8.2f} {estimated.maximum:8.2f}"
        )
    return "\n".join(lines)


def main() -> None:  # pragma: no cover - CLI entry
    experiment_main(run_table1, format_table1, __doc__)


if __name__ == "__main__":  # pragma: no cover
    main()
