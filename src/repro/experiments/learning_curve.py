"""Learning curve over the number of training databases (E5).

The paper (§3.2): *"To decide which number of training databases and
workloads is sufficient, we evaluated the performance on a holdout test
database as we added additional training databases.  After 19 databases,
the performance stagnated."*

This driver retrains the zero-shot model on growing prefixes of the
training fleet and reports the median Q-error on the unseen IMDB
holdout (mixed over the three benchmark workloads).  The full fleet's
point is the context's own model, trained on exactly that corpus.

Corpus shards are collected once and reused across every fleet-size
point: per-shard seeds depend only on ``(seed, shard_index)``, so the
records of databases ``0..k`` are identical whichever fleet size they
were collected under — a prefix of the full corpus *is* the corpus of
the smaller fleet.  Sweeping ``num_training_databases`` across separate
``build_context`` calls reuses the same shards through the persistent
shard cache instead of re-executing them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ExperimentError
from repro.experiments.setup import (
    ExperimentContext,
    ExperimentScale,
    build_context,
    experiment_main,
    score,
)
from repro.featurize.graph import CardinalitySource
from repro.models import ZeroShotEstimator

__all__ = ["LearningCurveResult", "run_learning_curve",
           "format_learning_curve"]


@dataclass
class LearningCurveResult:
    """Median holdout Q-error as the training fleet grows."""

    database_counts: list[int] = field(default_factory=list)
    median_q_errors: list[float] = field(default_factory=list)

    def improvement(self) -> float:
        """Error reduction factor from the first to the last point."""
        return self.median_q_errors[0] / self.median_q_errors[-1]


def run_learning_curve(scale: ExperimentScale | None = None,
                       context: ExperimentContext | None = None,
                       database_counts: list[int] | None = None
                       ) -> LearningCurveResult:
    """Train on 1..N databases; evaluate each model on unseen IMDB.

    Each fleet-size point featurizes a prefix of the shard-collected
    corpus — no workload is ever re-executed for a smaller fleet.
    """
    if context is None:
        context = build_context(scale, with_imdb_pool=False)
    source = CardinalitySource.ACTUAL
    names = list(context.corpus.records_by_database)
    if database_counts is None:
        total = len(names)
        database_counts = sorted({1, max(total // 2, 1), total})
    # An empty prefix of the fleet would featurize all of it, and a
    # negative one would slice it from its end.
    if not database_counts or \
            not all(1 <= count <= len(names) for count in database_counts):
        raise ExperimentError(
            f"database counts must lie in 1..{len(names)} (the corpus's "
            f"databases), got {database_counts}")

    # Evaluation set: all three benchmarks pooled, featurized once via
    # the estimator's adapter (raw graphs are scaler-independent; each
    # fleet-size model applies its own scalers at predict time).
    evaluation_plans, truths = context.pooled_evaluation()
    adapter = ZeroShotEstimator(source=source)
    evaluation_graphs = adapter.featurize(evaluation_plans, context.imdb)

    result = LearningCurveResult()
    for count in database_counts:
        if count == len(names):
            # The full fleet is the context's own training set.
            estimator = context.estimator(source)
        else:
            estimator = ZeroShotEstimator(
                config=context.scale.zero_shot_config, source=source)
            estimator.fit_graphs(
                context.corpus.featurize(source, names[:count]),
                context.scale.zero_shot_trainer)
        result.database_counts.append(count)
        result.median_q_errors.append(score(
            estimator.model.predict_runtime(evaluation_graphs), truths).median)
    return result


def format_learning_curve(result: LearningCurveResult) -> str:
    lines = ["Learning curve — holdout median Q-error vs #training databases",
             "=" * 64,
             f"  {'#databases':>12s}{'median Q-error':>18s}"]
    for count, median in zip(result.database_counts, result.median_q_errors):
        lines.append(f"  {count:>12d}{median:>18.2f}")
    lines.append(f"\n  improvement factor first->last: "
                 f"{result.improvement():.2f}x")
    return "\n".join(lines)


def main() -> None:  # pragma: no cover - CLI entry
    experiment_main(run_learning_curve, format_learning_curve, __doc__)


if __name__ == "__main__":  # pragma: no cover
    main()
