"""Ablations of the zero-shot design choices (DESIGN.md experiment E7).

Three questions the paper's design raises, answered empirically:

1. **Graph structure** — does bottom-up message passing beat a flat
   (pooled) encoding of the same transferable features?
2. **Cardinality features** — how much accuracy is lost when operator
   cardinalities are removed from the encoding (the separation-of-
   concerns argument of §2.2)?
3. **Exact vs estimated cardinalities** — the gap Table 1 quantifies.
"""

from __future__ import annotations

import copy

from repro.experiments.setup import (
    ExperimentContext,
    ExperimentScale,
    build_context,
    experiment_main,
    score,
)
from repro.featurize.graph import (
    CARDINALITY_FEATURE_INDEX,
    CardinalitySource,
    PlanGraph,
)
from repro.models import FlatVectorCostModel, ZeroShotEstimator
from repro.models.metrics import QErrorStats

__all__ = ["run_ablations", "format_ablations"]


def _strip_cardinalities(graphs: list[PlanGraph]) -> list[PlanGraph]:
    """Zero out the per-operator cardinality feature."""
    stripped = []
    for graph in graphs:
        clone = copy.deepcopy(graph)
        for row in clone.features["plan_op"]:
            row[CARDINALITY_FEATURE_INDEX] = 0.0
        stripped.append(clone)
    return stripped


def run_ablations(scale: ExperimentScale | None = None,
                  context: ExperimentContext | None = None
                  ) -> dict[str, QErrorStats]:
    """Train the ablation variants on the shared corpus; evaluate each on
    IMDB: variant name -> Q-error stats."""
    if context is None:
        context = build_context(scale)
    source = CardinalitySource.ACTUAL
    train_graphs = context.corpus.featurize(source)

    full = context.estimator(source)
    evaluation_plans, truths = context.pooled_evaluation()
    # Raw (unscaled) evaluation graphs, via the estimator's own
    # featurization adapter — the ablations transform them below.
    evaluation_graphs = full.featurize(evaluation_plans, context.imdb)

    result = {}

    # Full model (graph + message passing + cardinalities), over the
    # already-featurized evaluation graphs.
    result["graph (full model)"] = score(
        full.model.predict_runtime(evaluation_graphs), truths)

    # Estimated-cardinality variant (the deployable configuration) —
    # featurized separately: its cardinality features differ.
    estimated = context.estimator(CardinalitySource.ESTIMATED)
    estimated_graphs = estimated.featurize(evaluation_plans, context.imdb)
    result["graph (estimated cardinalities)"] = score(
        estimated.model.predict_runtime(estimated_graphs), truths)

    # Flat featurization: same features, structure pooled away.
    flat = FlatVectorCostModel(seed=context.scale.seed)
    flat.fit(train_graphs, context.scale.zero_shot_trainer)
    result["flat (no message passing)"] = score(
        flat.predict_runtime(evaluation_graphs), truths)

    # No cardinality features: the model must guess selectivities.
    no_card = ZeroShotEstimator(config=context.scale.zero_shot_config,
                                source=source)
    no_card.fit_graphs(_strip_cardinalities(train_graphs),
                       context.scale.zero_shot_trainer)
    result["graph (no cardinality features)"] = score(
        no_card.model.predict_runtime(
            _strip_cardinalities(evaluation_graphs)), truths)

    return result


def format_ablations(result: dict[str, QErrorStats]) -> str:
    lines = ["Ablations — median Q-error on the unseen IMDB database",
             "=" * 60]
    for variant, stats in result.items():
        lines.append(f"  {variant:<38s} {stats.median:8.2f} "
                     f"(95th {stats.percentile95:.2f})")
    return "\n".join(lines)


def main() -> None:  # pragma: no cover - CLI entry
    experiment_main(run_ablations, format_ablations, __doc__)


if __name__ == "__main__":  # pragma: no cover
    main()
