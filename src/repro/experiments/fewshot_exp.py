"""Few-shot fine-tuning vs workload-driven training from scratch (E6).

The paper (§1, §4.3): fine-tuning a zero-shot model on a few queries of
the unseen database should outperform (a) the zero-shot model
out-of-the-box and, crucially, (b) a workload-driven model trained from
scratch on the same small number of queries.
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
from repro.models import CostEstimator, TrainerConfig, get_estimator

__all__ = ["FewShotResult", "run_fewshot", "format_fewshot"]


@dataclass
class FewShotResult:
    """Median Q-error per adaptation budget."""

    budgets: list[int] = field(default_factory=list)
    zero_shot_median: float = float("nan")
    fewshot_medians: list[float] = field(default_factory=list)
    from_scratch_medians: list[float] = field(default_factory=list)


def run_fewshot(scale: ExperimentScale | None = None,
                context: ExperimentContext | None = None) -> FewShotResult:
    """Compare zero-shot, few-shot and from-scratch E2E at small budgets,
    on JOB-light with the deployable (estimated-cardinality) model."""
    if context is None:
        context = build_context(scale)
    if not context.imdb_pool:
        raise ExperimentError("few-shot experiment needs the IMDB pool")
    budgets = [b for b in context.scale.fewshot_budgets
               if b <= len(context.imdb_pool)]
    if not budgets:
        raise ExperimentError("no few-shot budget fits the IMDB pool")

    base = context.estimator(CardinalitySource.ESTIMATED)
    evaluation_plans = [r.plan
                        for r in context.evaluation_records["job-light"]]
    truths = context.evaluation_truths("job-light")

    def median(estimator: CostEstimator) -> float:
        return score(estimator.predict_runtime(evaluation_plans,
                                               context.imdb), truths).median

    result = FewShotResult(budgets=budgets)
    result.zero_shot_median = median(base)

    for budget in budgets:
        support = context.imdb_pool[:budget]

        # Few-shot: fine-tune the zero-shot model.
        tuned = base.fine_tune(support, context.imdb, TrainerConfig(
            epochs=25, learning_rate=2e-4,
            batch_size=min(16, budget), validation_fraction=0.0,
            early_stopping_patience=25, seed=context.scale.seed,
        ))
        result.fewshot_medians.append(median(tuned))

        # From scratch: E2E on the same queries (its adapter prices
        # out-of-vocabulary plans at the training-median runtime).
        e2e = get_estimator("e2e").fit(support, context.imdb,
                                       context.scale.baseline_trainer)
        result.from_scratch_medians.append(median(e2e))
    return result


def format_fewshot(result: FewShotResult) -> str:
    lines = ["Few-shot adaptation — median Q-error vs adaptation budget",
             "=" * 64,
             f"  zero-shot (0 queries): {result.zero_shot_median:.2f}",
             f"  {'#queries':>10s}{'few-shot':>12s}{'E2E scratch':>14s}"]
    for budget, few, scratch in zip(result.budgets, result.fewshot_medians,
                                    result.from_scratch_medians):
        lines.append(f"  {budget:>10d}{few:>12.2f}{scratch:>14.2f}")
    return "\n".join(lines)


def main() -> None:  # pragma: no cover - CLI entry
    experiment_main(run_fewshot, format_fewshot, __doc__)


if __name__ == "__main__":  # pragma: no cover
    main()
