"""Figure 3: estimation errors of workload-driven models for a varying
number of training queries, compared with zero-shot cost models.

Four panels:

1-3. median Q-error on *scale*, *synthetic*, *JOB-light* vs the number
     of training queries available to the workload-driven baselines
     (MSCN, E2E, Scaled Optimizer Cost), with the two zero-shot models
     (exact / estimated cardinalities) as horizontal lines — they use
     **zero** queries on the evaluation database.
4.   cumulative execution time of the training workload (the cost of
     deploying a workload-driven model on a new database).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ExperimentError
from repro.experiments.setup import (
    ExperimentContext,
    ExperimentScale,
    build_context,
    experiment_main,
    score,
)
from repro.featurize.graph import CardinalitySource
from repro.models import CostEstimator, get_estimator
from repro.models.metrics import QErrorStats
from repro.workload import BENCHMARK_NAMES, WorkloadRunner

__all__ = ["Figure3Result", "run_figure3", "format_figure3",
           "evaluate_zero_shot", "train_workload_driven_baselines"]

ZERO_SHOT_EXACT = "Zero-Shot (Exact Cardinalities)"
ZERO_SHOT_ESTIMATED = "Zero-Shot (Est. Cardinalities)"
MSCN_NAME = "MSCN (Workload-Driven)"
E2E_NAME = "E2E (Workload-Driven)"
SCALED_COST_NAME = "Scaled Optimizer Costs"


@dataclass
class Figure3Result:
    """All series of the figure.

    ``baseline_series[benchmark][model_name]`` is a list of median
    Q-errors aligned with ``budgets``; ``zero_shot_medians`` holds the
    budget-independent zero-shot lines.
    """

    budgets: list[int]
    baseline_series: dict[str, dict[str, list[float]]]
    zero_shot_medians: dict[str, dict[str, float]]
    execution_hours: list[float]


# ----------------------------------------------------------------------
# Zero-shot evaluation (no queries on the evaluation database needed)
# ----------------------------------------------------------------------
def evaluate_zero_shot(context: ExperimentContext, benchmark: str,
                       source: CardinalitySource) -> QErrorStats:
    plans = [r.plan for r in context.evaluation_records[benchmark]]
    return score(
        context.estimator(source).predict_runtime(plans, context.imdb),
        context.evaluation_truths(benchmark))


# ----------------------------------------------------------------------
# Workload-driven baselines at one training budget
# ----------------------------------------------------------------------
def train_workload_driven_baselines(context: ExperimentContext,
                                    budget: int
                                    ) -> dict[str, CostEstimator]:
    """Train MSCN / E2E / ScaledOptimizerCost on ``budget`` IMDB queries.

    Everything goes through the unified estimator API: each
    estimator owns its featurization (and its out-of-vocabulary
    fallback — at tiny budgets some evaluation queries fall outside the
    one-hot vocabularies, and the estimators price them at the
    training-median runtime, which is how such gaps surface as error
    spikes in the paper's MSCN curves).
    """
    if budget > len(context.imdb_pool):
        raise ExperimentError(
            f"budget {budget} exceeds the IMDB pool "
            f"({len(context.imdb_pool)} executed queries)"
        )
    training = context.imdb_pool[:budget]
    trainer = context.scale.baseline_trainer
    return {
        MSCN_NAME: get_estimator("mscn").fit(training, context.imdb,
                                             trainer),
        E2E_NAME: get_estimator("e2e").fit(training, context.imdb, trainer),
        SCALED_COST_NAME: get_estimator("scaled-optimizer-cost").fit(
            training, context.imdb, trainer),
    }


# ----------------------------------------------------------------------
# The full figure
# ----------------------------------------------------------------------
def run_figure3(scale: ExperimentScale | None = None,
                context: ExperimentContext | None = None) -> Figure3Result:
    """Regenerate every series of Figure 3."""
    if context is None:
        context = build_context(scale)
    budgets = [b for b in context.scale.training_budgets
               if b <= len(context.imdb_pool)]
    if not budgets:
        raise ExperimentError("no training budget fits the IMDB pool")

    result = Figure3Result(
        budgets=budgets,
        baseline_series={b: {MSCN_NAME: [], E2E_NAME: [], SCALED_COST_NAME: []}
                         for b in BENCHMARK_NAMES},
        zero_shot_medians={b: {} for b in BENCHMARK_NAMES},
        execution_hours=[],
    )

    # Zero-shot lines (budget-independent).
    for benchmark in BENCHMARK_NAMES:
        for source, label in ((CardinalitySource.ACTUAL, ZERO_SHOT_EXACT),
                              (CardinalitySource.ESTIMATED,
                               ZERO_SHOT_ESTIMATED)):
            result.zero_shot_medians[benchmark][label] = \
                evaluate_zero_shot(context, benchmark, source).median

    # Workload-driven curves + execution-time panel.
    for budget in budgets:
        baselines = train_workload_driven_baselines(context, budget)
        result.execution_hours.append(
            WorkloadRunner.total_execution_hours(context.imdb_pool[:budget])
        )
        for benchmark in BENCHMARK_NAMES:
            plans = [r.plan for r in context.evaluation_records[benchmark]]
            truths = context.evaluation_truths(benchmark)
            for name, estimator in baselines.items():
                result.baseline_series[benchmark][name].append(score(
                    estimator.predict_runtime(plans, context.imdb),
                    truths).median)
    return result


def format_figure3(result: Figure3Result) -> str:
    """Render the four panels of Figure 3 as text tables."""
    lines = ["Figure 3 — Median Q-error vs number of training queries",
             "=" * 70]
    for benchmark, series in result.baseline_series.items():
        lines.append(f"\nPanel: {benchmark}")
        header = f"  {'model':35s}" + "".join(
            f"{budget:>10d}" for budget in result.budgets)
        lines.append(header)
        for name, medians in series.items():
            row = f"  {name:35s}" + "".join(f"{m:10.2f}" for m in medians)
            lines.append(row)
        for label in (ZERO_SHOT_EXACT, ZERO_SHOT_ESTIMATED):
            median = result.zero_shot_medians[benchmark][label]
            row = (f"  {label:35s}" +
                   f"{median:10.2f}" * len(result.budgets) +
                   "   (0 queries on eval DB)")
            lines.append(row)
    lines.append("\nPanel: execution time of the training workload")
    lines.append(f"  {'#queries':>10s}{'hours':>12s}")
    for budget, hours in zip(result.budgets, result.execution_hours):
        lines.append(f"  {budget:>10d}{hours:>12.4f}")
    return "\n".join(lines)


def main() -> None:  # pragma: no cover - CLI entry
    experiment_main(run_figure3, format_figure3, __doc__)


if __name__ == "__main__":  # pragma: no cover
    main()
