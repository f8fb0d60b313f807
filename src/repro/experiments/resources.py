"""Resource-consumption prediction (E8, paper §4.3).

    *"zero-shot cost models could be used to predict not only the
    runtime but also other aspects such as resource consumption and thus
    be used also for runtime decisions (e.g., query scheduling)."*

The same transferable graph encoding and architecture are trained with
different labels — peak working memory and pages read — and evaluated on
the unseen IMDB database.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.setup import (
    ExperimentContext,
    ExperimentScale,
    build_context,
    experiment_main,
    score,
)
from repro.featurize.graph import CardinalitySource
from repro.models import ZeroShotEstimator
from repro.models.metrics import QErrorStats

__all__ = ["run_resources", "format_resources"]

_TARGETS = ("runtime", "memory", "io")


def _evaluation_labels(context: ExperimentContext, target: str) -> np.ndarray:
    """The pooled records' memory (bytes) or IO (pages) labels, each plus
    one: a plan that touches none still has a positive label."""
    attribute = "memory_peak_bytes" if target == "memory" else "io_pages"
    return np.array([getattr(record, attribute) + 1.0
                     for records in context.evaluation_records.values()
                     for record in records])


def run_resources(scale: ExperimentScale | None = None,
                  context: ExperimentContext | None = None
                  ) -> dict[str, QErrorStats]:
    """Train one zero-shot model per resource target; evaluate each on
    IMDB: target -> Q-error stats."""
    if context is None:
        context = build_context(scale, with_imdb_pool=False)
    source = CardinalitySource.ACTUAL

    evaluation_plans, runtimes = context.pooled_evaluation()
    # Featurize once via the estimator's adapter; every per-target model
    # scales and predicts over the same raw graphs.
    adapter = ZeroShotEstimator(source=source)
    evaluation_graphs = adapter.featurize(evaluation_plans, context.imdb)

    result = {}
    for target in _TARGETS:
        if target == "runtime":
            estimator = context.estimator(source)
            truths = runtimes
        else:
            estimator = ZeroShotEstimator(
                config=context.scale.zero_shot_config, source=source)
            estimator.fit_graphs(
                context.corpus.featurize(source, target=target),
                context.scale.zero_shot_trainer)
            truths = _evaluation_labels(context, target)
        result[target] = score(
            estimator.model.predict_runtime(evaluation_graphs), truths)
    return result


def format_resources(result: dict[str, QErrorStats]) -> str:
    lines = ["Resource prediction — Q-errors on the unseen IMDB database",
             "=" * 62,
             f"  {'target':<12s}{'median':>10s}{'95th':>10s}{'max':>10s}"]
    for target, stats in result.items():
        lines.append(f"  {target:<12s}{stats.median:>10.2f}"
                     f"{stats.percentile95:>10.2f}{stats.maximum:>10.2f}")
    return "\n".join(lines)


def main() -> None:  # pragma: no cover - CLI entry
    experiment_main(run_resources, format_resources, __doc__)


if __name__ == "__main__":  # pragma: no cover
    main()
