"""Hardware-transfer experiment (paper §4.3, ``repro-hardware``).

    *"zero-shot cost models could also generalize across different
    hardware configurations if metadata about the hardware is added
    to the transferable featurization."*

Train the zero-shot model across a fleet whose databases execute on
**different machines** (round-robin over the named system
configurations), with the machine encoded as a ``system`` node.  Then
evaluate on an unseen database running on an unseen machine — the
``mid-range`` holdout, which interpolates between the training
machines — and compare against the status quo: the shared context's
hardware-blind model, trained on the single default machine.

The hardware-aware model should transfer (lower median q-error on the
holdout machine); the hardware-blind baseline systematically mispredicts
because it has silently baked one machine's coefficients into its
weights.  As a coda, the trained hardware-aware model drives the
:class:`~repro.tuning.HardwareAdvisor` — "should I buy faster disks?" —
on the holdout workload.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.db.generator import generate_training_database_specs
from repro.experiments.cache import resolve_store
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
from repro.runtime import get_system_config
from repro.tuning import HardwareAdvisor, HardwareRecommendation
from repro.workload import (
    WorkloadRunner,
    WorkloadSpec,
    collect_training_corpus,
    generate_workload,
)

__all__ = ["HardwareResult", "run_hardware", "format_hardware"]

#: The machines the fleet trains on, round-robin.  ``mid-range`` is
#: deliberately absent: it is the unseen holdout the experiment
#: transfers *to*.
TRAIN_CONFIGS = (
    "default", "faster-cpu", "slow-disk", "fast-disk", "big-memory",
)
HOLDOUT_CONFIG = "mid-range"


@dataclass
class HardwareResult:
    """Holdout q-errors: hardware-aware fleet vs hardware-blind baseline."""

    multi_stats: QErrorStats
    single_stats: QErrorStats
    advisor: HardwareRecommendation

    @property
    def median_improvement(self) -> float:
        """>1 means multi-config training beat the single-config baseline."""
        return self.single_stats.median / self.multi_stats.median


def run_hardware(scale: ExperimentScale | None = None,
                 context: ExperimentContext | None = None
                 ) -> HardwareResult:
    """Train across machines; evaluate on an unseen machine.

    Two models, same architecture and budget, both with exact
    cardinalities:

    * **multi** — corpus collected round-robin over :data:`TRAIN_CONFIGS`,
      trained with ``system_features=True`` (knows which machine each
      training query ran on, and which machine it predicts for);
    * **single** — the context's model, trained on the same fleet
      collected entirely on the stock machine, hardware-blind (the
      status quo before the hardware axis).

    Both predict the same holdout workload: the context's unseen IMDB
    database executed on the :data:`HOLDOUT_CONFIG` machine, which
    neither model ever trained on.
    """
    if context is None:
        context = build_context(scale)
    scale = context.scale
    source = CardinalitySource.ACTUAL
    holdout_machine = get_system_config(HOLDOUT_CONFIG)
    rng = np.random.default_rng(scale.seed)

    # 1. The context's fleet again, spread across machines.  Same specs,
    #    same seeds as the context's corpus: the only difference is the
    #    hardware axis, and the system node that reads it.  Collected
    #    through the artifact store: the ``default``-machine shards are
    #    the context's own, and a repeated call loads every shard.
    specs = generate_training_database_specs(
        scale.num_training_databases, base_seed=scale.seed,
        min_rows=scale.training_db_min_rows,
        max_rows=scale.training_db_max_rows,
    )
    multi_corpus = collect_training_corpus(
        specs, scale.queries_per_database, seed=scale.seed,
        random_indexes_per_database=scale.random_indexes_per_database,
        noise_sigma=scale.training_noise_sigma,
        system=TRAIN_CONFIGS,
        store=resolve_store(),
    )
    multi_estimator = ZeroShotEstimator(
        config=replace(scale.zero_shot_config, system_features=True),
        source=source,
    )
    multi_estimator.fit_graphs(
        multi_corpus.featurize(source, system_features=True),
        scale.zero_shot_trainer,
    )

    # 2. Holdout: unseen database, unseen machine.
    imdb = context.imdb
    queries = generate_workload(imdb, WorkloadSpec(
        num_queries=scale.evaluation_queries,
        seed=int(rng.integers(0, 2**31 - 1)),
    ))
    runner = WorkloadRunner(imdb, system=holdout_machine,
                            noise_sigma=scale.evaluation_noise_sigma,
                            seed=int(rng.integers(0, 2**31 - 1)))
    records = runner.run(queries)
    plans = [record.plan for record in records]
    truths = np.array([record.runtime_seconds for record in records])

    # The deployment machine's coefficients are known (measured once on
    # the new box) — what is missing is training data from it.  The
    # hardware-aware model consumes them through its system node; the
    # baseline has no input to put them in.
    multi_deployed = ZeroShotEstimator(
        model=multi_estimator.model, source=source, system=holdout_machine)
    multi_stats = score(multi_deployed.predict_runtime(plans, imdb), truths)
    single_stats = score(
        context.estimator(source).predict_runtime(plans, imdb), truths)

    # 3. What-if plans are never executed: the advisor prices them with
    #    the optimizer's estimated cardinalities.
    advisor = HardwareAdvisor(
        imdb, ZeroShotEstimator(model=multi_estimator.model,
                                source=CardinalitySource.ESTIMATED),
        baseline=HOLDOUT_CONFIG)

    return HardwareResult(
        multi_stats=multi_stats,
        single_stats=single_stats,
        advisor=advisor.recommend(queries),
    )


def format_hardware(result: HardwareResult) -> str:
    """Plain-text report: q-error table + the hardware what-if ranking."""
    lines = [
        "Hardware transfer — Q-errors on an unseen database "
        f"on the unseen {HOLDOUT_CONFIG!r} machine",
        "=" * 72,
        f"  training machines: {', '.join(TRAIN_CONFIGS)}",
        f"  {'model':<28s}{'median':>10s}{'95th':>10s}{'max':>10s}",
    ]
    rows = (
        ("multi-config (hardware-aware)", result.multi_stats),
        ("single-config (blind)", result.single_stats),
    )
    for label, stats in rows:
        lines.append(f"  {label:<28s}{stats.median:>10.2f}"
                     f"{stats.percentile95:>10.2f}{stats.maximum:>10.2f}")
    lines.append(f"  median q-error improvement: "
                 f"{result.median_improvement:.2f}x")
    recommendation = result.advisor
    lines.append("")
    lines.append(f"Hardware what-if (baseline "
                 f"{recommendation.baseline_name!r}, predicted "
                 f"{recommendation.baseline_seconds:.3f}s workload):")
    for option in recommendation.options:
        lines.append(f"  {option.name:<14s}"
                     f"{option.predicted_seconds:>10.3f}s  "
                     f"({option.predicted_speedup:.2f}x)")
    if recommendation.worth_upgrading:
        lines.append(f"  -> upgrade to {recommendation.best.name!r} "
                     f"for a predicted "
                     f"{recommendation.best.predicted_speedup:.2f}x")
    else:
        lines.append("  -> no candidate beats the current machine")
    return "\n".join(lines)


def main() -> None:  # pragma: no cover - CLI entry
    experiment_main(run_hardware, format_hardware, __doc__)


if __name__ == "__main__":  # pragma: no cover
    main()
