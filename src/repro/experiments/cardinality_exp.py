"""Estimated vs. learned cardinalities (the paper's "beyond cost
estimation" task).

Two questions, answered on databases the model has never seen:

1. **Estimation quality** — per-operator Q-error of the classical
   optimizer's histogram estimates (independence assumptions) against
   the zero-shot cardinality head, both measured on the true
   cardinalities recorded during workload execution.  The holdout is
   the correlated IMDB database, exactly where the heuristics drift.
2. **Plan quality** — what happens when the DP join enumerator consumes
   each cardinality source: evaluation queries are re-planned with a
   :class:`~repro.optimizer.learned_cardinality.LearnedCardinalityEstimator`
   and executed (noise-free), and the cumulative runtimes of the two
   plan sets are compared.

CLI: ``repro-cardinality --scale quick|default|paper``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.experiments.setup import (
    ExperimentContext,
    ExperimentScale,
    build_context,
    experiment_main,
    score,
)
from repro.featurize.vocabulary import scan_predicates
from repro.models import ZeroShotEstimator, clamp_predictions
from repro.models.cardinality import record_cardinalities
from repro.models.metrics import QErrorStats
from repro.optimizer.learned_cardinality import LearnedCardinalityEstimator
from repro.plans.operators import (
    HashJoin,
    IndexScan,
    NestedLoopJoin,
)
from repro.plans.plan import walk_plan
from repro.workload import BENCHMARK_NAMES, WorkloadRunner

__all__ = ["CardinalityResult", "run_cardinality", "format_cardinality"]

#: Cardinalities are clamped to at least one row before Q-errors are
#: computed (an operator that produced zero rows would otherwise make
#: the ratio metric degenerate) — the convention of the cardinality-
#: estimation literature.
CARDINALITY_FLOOR = 1.0


@dataclass
class PlanQualityResult:
    """Runtime of the evaluation workload under each cardinality source."""

    queries: int = 0
    changed_plans: int = 0
    heuristic_seconds: float = 0.0
    learned_seconds: float = 0.0
    learned_fragments: int = 0
    fallback_fragments: int = 0

    @property
    def runtime_ratio(self) -> float:
        """learned / heuristic cumulative runtime (1.0 = parity)."""
        if self.heuristic_seconds <= 0:
            return float("nan")
        return self.learned_seconds / self.heuristic_seconds


@dataclass
class CardinalityResult:
    """All series of the cardinality experiment.

    The headline ``heuristic`` / ``learned`` stats cover the
    *estimation-relevant* operators — joins and filtered scans, the
    nodes whose output the optimizer must actually estimate (the
    convention of cardinality-estimation benchmarks).  ``*_all`` cover
    every operator, including the trivially exact ones (aggregates,
    unfiltered scans, hash builds) that dominate plan node counts.
    """

    heuristic: QErrorStats | None = None
    learned: QErrorStats | None = None
    heuristic_all: QErrorStats | None = None
    learned_all: QErrorStats | None = None
    per_benchmark: dict[str, dict[str, QErrorStats]] = field(
        default_factory=dict)
    plan_quality: PlanQualityResult = field(
        default_factory=PlanQualityResult)


def _train_cardinality_estimator(context: ExperimentContext
                                 ) -> ZeroShotEstimator:
    """Fit the multi-task cardinality head on the shared corpus."""
    scale = context.scale
    estimator = ZeroShotEstimator(
        config=replace(scale.zero_shot_config, cardinality_head=True))
    estimator.fit(context.corpus.all_records(), context.corpus.databases,
                  scale.zero_shot_trainer)
    return estimator


def _heuristic_cardinalities(plan) -> np.ndarray:
    """The optimizer's per-operator estimates, in the label pre-order."""
    return np.asarray([node.est_rows for node in walk_plan(plan.root)])


def _relevant_mask(plan) -> np.ndarray:
    """True for operators whose cardinality must be *estimated*: joins
    and scans with predicates/lookups.  Aggregate outputs, hash builds
    and unfiltered scans are copies or constants."""
    mask = []
    for node in walk_plan(plan.root):
        if isinstance(node, (HashJoin, NestedLoopJoin)):
            mask.append(True)
        elif isinstance(node, IndexScan) and node.lookup_column is not None:
            mask.append(True)
        else:
            mask.append(bool(scan_predicates(node)))
    return np.asarray(mask, dtype=bool)


def run_cardinality(scale: ExperimentScale | None = None,
                    context: ExperimentContext | None = None
                    ) -> CardinalityResult:
    """Run the full estimated-vs-learned-cardinalities comparison."""
    if context is None:
        context = build_context(scale)
    estimator = _train_cardinality_estimator(context)

    result = CardinalityResult()
    all_actual: list[np.ndarray] = []
    all_heuristic: list[np.ndarray] = []
    all_learned: list[np.ndarray] = []
    all_masks: list[np.ndarray] = []
    for benchmark in BENCHMARK_NAMES:
        records = context.evaluation_records[benchmark]
        plans = [r.plan for r in records]
        predicted = estimator.predict_cardinalities(plans, context.imdb)
        actual = [np.maximum(np.asarray(record_cardinalities(r)),
                             CARDINALITY_FLOOR) for r in records]
        heuristic = [np.maximum(_heuristic_cardinalities(r.plan),
                                CARDINALITY_FLOOR) for r in records]
        learned = [np.maximum(clamp_predictions(p), CARDINALITY_FLOOR)
                   for p in predicted]
        masks = [_relevant_mask(r.plan) for r in records]
        all_actual.extend(actual)
        all_heuristic.extend(heuristic)
        all_learned.extend(learned)
        all_masks.extend(masks)
        truth = np.concatenate(actual)
        mask = np.concatenate(masks)
        result.per_benchmark[benchmark] = {
            "heuristic": score(np.concatenate(heuristic)[mask], truth[mask]),
            "learned": score(np.concatenate(learned)[mask], truth[mask]),
        }
    truth = np.concatenate(all_actual)
    heuristic = np.concatenate(all_heuristic)
    learned = np.concatenate(all_learned)
    mask = np.concatenate(all_masks)
    result.heuristic = score(heuristic[mask], truth[mask])
    result.learned = score(learned[mask], truth[mask])
    result.heuristic_all = score(heuristic, truth)
    result.learned_all = score(learned, truth)

    # ------------------------------------------------------------------
    # Plan quality: re-plan and re-run the evaluation queries with each
    # cardinality source feeding the same DP enumerator.  Noise-free
    # runs isolate the plan-choice effect from measurement noise.
    # ------------------------------------------------------------------
    learned_optimizer = LearnedCardinalityEstimator(context.imdb, estimator)
    heuristic_runner = WorkloadRunner(context.imdb, noise_sigma=0.0, seed=0)
    learned_runner = WorkloadRunner(context.imdb, noise_sigma=0.0, seed=0,
                                    cardinality_estimator=learned_optimizer)
    quality = result.plan_quality
    for benchmark in BENCHMARK_NAMES:
        for record in context.evaluation_records[benchmark]:
            baseline = heuristic_runner.run_query(record.query)
            relearned = learned_runner.run_query(record.query)
            quality.queries += 1
            quality.heuristic_seconds += baseline.runtime_seconds
            quality.learned_seconds += relearned.runtime_seconds
            if [n.label() for n in baseline.plan.nodes()] != \
                    [n.label() for n in relearned.plan.nodes()]:
                quality.changed_plans += 1
    quality.learned_fragments = learned_optimizer.learned_fragments
    quality.fallback_fragments = learned_optimizer.fallback_fragments
    return result


def format_cardinality(result: CardinalityResult) -> str:
    lines = ["Cardinality estimation — per-operator Q-error on unseen IMDB",
             "=" * 64,
             "Joins + filtered scans (the operators estimation is for):"]
    lines.append(f"  {'':<12s} {'median':>8s} {'95th':>8s} {'max':>10s}")
    for name, stats in (("heuristic", result.heuristic),
                        ("learned", result.learned)):
        lines.append(f"  {name:<12s} {stats.median:8.2f} "
                     f"{stats.percentile95:8.2f} {stats.maximum:10.1f}")
    lines.append("All operators (incl. trivially exact nodes):")
    for name, stats in (("heuristic", result.heuristic_all),
                        ("learned", result.learned_all)):
        lines.append(f"  {name:<12s} {stats.median:8.2f} "
                     f"{stats.percentile95:8.2f} {stats.maximum:10.1f}")
    for benchmark, entries in result.per_benchmark.items():
        lines.append(f"  Panel: {benchmark}")
        for name in ("heuristic", "learned"):
            stats = entries[name]
            lines.append(f"    {name:<12s} median={stats.median:.2f} "
                         f"95th={stats.percentile95:.2f}")
    quality = result.plan_quality
    lines.append("Plan quality — DP enumerator fed by each source")
    lines.append(f"  queries={quality.queries} "
                 f"changed plans={quality.changed_plans} "
                 f"runtime ratio (learned/heuristic)="
                 f"{quality.runtime_ratio:.3f}")
    lines.append(f"  fragments priced learned={quality.learned_fragments} "
                 f"fallback={quality.fallback_fragments}")
    return "\n".join(lines)


def main() -> None:  # pragma: no cover - CLI entry
    experiment_main(run_cardinality, format_cardinality, __doc__)


if __name__ == "__main__":  # pragma: no cover
    main()
