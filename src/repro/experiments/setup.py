"""Shared experiment setup.

``build_context`` performs the paper's one-time effort: generate the
training fleet, collect the multi-database training corpus (under random
physical designs), train the two zero-shot models (estimated / exact
cardinalities), build the unseen IMDB database, run the evaluation
workloads, and execute the IMDB training-query pool that the
workload-driven baselines consume.

Every experiment driver then reuses the context, so benchmarks share the
expensive steps — and because the one-time effort is *one-time*,
``build_context`` round-trips its outputs through the persistent
:class:`~repro.experiments.cache.ArtifactStore`: a second call with the
same :class:`ExperimentScale` loads the corpus shards, trained models
and executed workloads from disk instead of rebuilding them.  Disable
with ``REPRO_CACHE=0`` (or ``use_cache=False``); relocate with
``REPRO_CACHE_DIR``; inspect/clear with ``python -m
repro.experiments.cache --stat/--clear``.
"""

from __future__ import annotations

import argparse
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.db import generate_training_database_specs, make_imdb_database
from repro.db.database import Database
from repro.errors import ExperimentError
from repro.featurize.graph import CardinalitySource
from repro.models import (
    QErrorStats,
    TrainerConfig,
    ZeroShotConfig,
    ZeroShotCostModel,
    ZeroShotEstimator,
    clamp_predictions,
    q_error_stats,
)
from repro.plans.plan import PhysicalPlan
from repro.workload import (
    BENCHMARK_NAMES,
    WorkloadRunner,
    WorkloadSpec,
    collect_training_corpus,
    generate_workload,
    make_benchmark_workload,
)
from repro.workload.corpus import TrainingCorpus
from repro.workload.runner import ExecutedQueryRecord

__all__ = ["ExperimentScale", "ExperimentContext", "build_context",
           "experiment_main", "scale_parser", "score"]


@dataclass(frozen=True)
class ExperimentScale:
    """Knobs that trade fidelity for wall-clock time.

    ``paper()`` mirrors the paper's setup (19 databases x 5,000 queries,
    budgets up to 50,000); ``default()`` is sized for the benchmark
    suite; ``quick()`` for unit tests.
    """

    num_training_databases: int = 8
    queries_per_database: int = 150
    random_indexes_per_database: int = 2
    #: Row-count range of the synthetic training fleet.  Must straddle
    #: the evaluation database's table sizes: zero-shot models
    #: interpolate across data scales, they do not extrapolate far
    #: beyond what the fleet covered.
    training_db_min_rows: int = 1_000
    training_db_max_rows: int = 80_000
    imdb_scale: float = 0.5
    evaluation_queries: int = 40
    training_budgets: tuple[int, ...] = (100, 300, 1000, 3000)
    fewshot_budgets: tuple[int, ...] = (10, 25, 50, 100)
    zero_shot_config: ZeroShotConfig = ZeroShotConfig(hidden_dim=64)
    zero_shot_trainer: TrainerConfig = TrainerConfig(
        epochs=60, batch_size=64, early_stopping_patience=15)
    baseline_trainer: TrainerConfig = TrainerConfig(
        epochs=50, batch_size=32, early_stopping_patience=12)
    #: Measurement noise of *training* runtimes (single runs, as in
    #: production query logs) and of *evaluation* runtimes (the paper
    #: repeats evaluation measurements and reports medians).
    training_noise_sigma: float = 0.15
    evaluation_noise_sigma: float = 0.05
    seed: int = 0

    def __post_init__(self):
        # Eager validation: a bad scale must fail here, at construction,
        # not minutes later deep inside corpus collection.
        if self.num_training_databases < 1:
            raise ExperimentError("need at least one training database")
        if self.queries_per_database < 1:
            raise ExperimentError(
                f"queries_per_database must be positive, got "
                f"{self.queries_per_database}"
            )
        if self.random_indexes_per_database < 0:
            raise ExperimentError(
                f"random_indexes_per_database must be non-negative, got "
                f"{self.random_indexes_per_database}"
            )
        if self.evaluation_queries < 1:
            raise ExperimentError(
                f"evaluation_queries must be positive, got "
                f"{self.evaluation_queries}"
            )
        if self.training_db_min_rows < 1 or \
                self.training_db_max_rows < self.training_db_min_rows:
            raise ExperimentError(
                f"invalid training row bounds "
                f"[{self.training_db_min_rows}, {self.training_db_max_rows}]"
            )
        if self.seed < 0:
            raise ExperimentError(f"seed must be non-negative, got {self.seed}")
        if not self.training_budgets:
            raise ExperimentError("need at least one training budget")
        # A negative budget would slice the IMDB pool from its end.
        for name in ("training_budgets", "fewshot_budgets"):
            budgets = getattr(self, name)
            if any(budget < 1 for budget in budgets):
                raise ExperimentError(
                    f"{name} must be positive, got {budgets}")
        if not (math.isfinite(self.imdb_scale) and self.imdb_scale > 0):
            raise ExperimentError(
                f"imdb_scale must be positive and finite, got "
                f"{self.imdb_scale}"
            )
        for name in ("training_noise_sigma", "evaluation_noise_sigma"):
            sigma = getattr(self, name)
            if not (math.isfinite(sigma) and sigma >= 0):
                raise ExperimentError(
                    f"{name} must be non-negative and finite, got {sigma}")

    @property
    def pool_size(self) -> int:
        """IMDB training-query pool = the largest baseline budget."""
        return max(self.training_budgets)

    @classmethod
    def quick(cls) -> "ExperimentScale":
        """Unit-test scale (seconds)."""
        return cls(
            num_training_databases=4,
            queries_per_database=60,
            random_indexes_per_database=1,
            training_db_min_rows=300,
            training_db_max_rows=6_000,
            imdb_scale=0.04,
            evaluation_queries=15,
            training_budgets=(30, 100),
            fewshot_budgets=(10, 30),
            zero_shot_config=ZeroShotConfig(hidden_dim=32),
            zero_shot_trainer=TrainerConfig(epochs=40, batch_size=32,
                                            early_stopping_patience=40),
            baseline_trainer=TrainerConfig(epochs=20, batch_size=16,
                                           early_stopping_patience=20),
        )

    @classmethod
    def default(cls) -> "ExperimentScale":
        """Benchmark scale (a few minutes for the full suite)."""
        return cls()

    @classmethod
    def paper(cls) -> "ExperimentScale":
        """The paper's setup (hours of compute)."""
        return cls(
            num_training_databases=19,
            queries_per_database=5_000,
            random_indexes_per_database=3,
            training_db_min_rows=2_000,
            training_db_max_rows=120_000,
            imdb_scale=1.0,
            evaluation_queries=200,
            training_budgets=(100, 500, 1_000, 5_000, 10_000, 50_000),
            fewshot_budgets=(10, 50, 100, 500),
            zero_shot_trainer=TrainerConfig(epochs=120, batch_size=128,
                                            early_stopping_patience=20),
            baseline_trainer=TrainerConfig(epochs=100, batch_size=64,
                                           early_stopping_patience=15),
        )


def scale_parser(doc: str | None) -> argparse.ArgumentParser:
    """The parser every experiment CLI starts from: ``--scale`` naming
    one of the :class:`ExperimentScale` presets."""
    parser = argparse.ArgumentParser(description=doc)
    parser.add_argument("--scale", choices=("quick", "default", "paper"),
                        default="default")
    return parser


def experiment_main(run: Callable[[ExperimentScale], object],
                    format: Callable[[object], str],
                    doc: str | None) -> None:  # pragma: no cover - CLI entry
    """The whole CLI of a driver that takes only ``--scale``: parse it,
    run the experiment at that scale, print the formatted result."""
    arguments = scale_parser(doc).parse_args()
    print(format(run(getattr(ExperimentScale, arguments.scale)())))


@dataclass
class ExperimentContext:
    """Everything the experiment drivers share."""

    scale: ExperimentScale
    corpus: TrainingCorpus
    zero_shot_models: dict[CardinalitySource, ZeroShotCostModel]
    imdb: Database
    evaluation_records: dict[str, list[ExecutedQueryRecord]]
    imdb_pool: list[ExecutedQueryRecord] = field(default_factory=list)

    def evaluation_truths(self, benchmark: str) -> np.ndarray:
        return np.array([r.runtime_seconds
                         for r in self.evaluation_records[benchmark]])

    def pooled_evaluation(self) -> tuple[list[PhysicalPlan], np.ndarray]:
        """Plans and measured runtimes of all three benchmarks' records,
        pooled in benchmark order."""
        records = [record for records in self.evaluation_records.values()
                   for record in records]
        return ([record.plan for record in records],
                np.array([record.runtime_seconds for record in records]))

    def estimator(self, source: CardinalitySource) -> ZeroShotEstimator:
        """The trained zero-shot model behind the unified
        :class:`~repro.models.api.CostEstimator` contract — the surface
        every experiment driver predicts through."""
        return ZeroShotEstimator(model=self.zero_shot_models[source],
                                 source=source)


def score(predictions: np.ndarray, truths: np.ndarray) -> QErrorStats:
    """Q-error summary of a model's predictions against measured truths,
    the predictions clamped first: the one metric boundary of every
    driver."""
    return q_error_stats(clamp_predictions(predictions), truths)


def train_zero_shot_models(corpus: TrainingCorpus, scale: ExperimentScale
                           ) -> dict[CardinalitySource, ZeroShotCostModel]:
    """Train one zero-shot model per cardinality source."""
    models = {}
    for source in (CardinalitySource.ESTIMATED, CardinalitySource.ACTUAL):
        estimator = ZeroShotEstimator(config=scale.zero_shot_config,
                                      source=source)
        estimator.fit_graphs(corpus.featurize(source),
                             scale.zero_shot_trainer)
        models[source] = estimator.model
    return models


def build_context(scale: ExperimentScale | None = None,
                  with_imdb_pool: bool = True,
                  store: "ArtifactStore | None" = None,
                  use_cache: bool | None = None,
                  workers: int | None = None) -> ExperimentContext:
    """Run the one-time setup and return the shared context.

    The result is keyed by a content hash of ``scale`` (+ the pool
    flag) in the persistent artifact store: a warm call deserializes
    the corpus shards, models and executed workloads and performs
    **zero** query execution or model training.  ``use_cache=None``
    defers to the ``REPRO_CACHE`` environment variable (on unless set
    to ``0``); ``store=None`` uses the default store rooted at
    ``REPRO_CACHE_DIR`` or ``~/.cache/repro``.

    Corpus collection is sharded per training database: ``workers`` (or
    the ``REPRO_WORKERS`` environment variable) fans the shards out to a
    process pool, the default is in-process — the corpus is
    record-identical either way.  With the cache on, each executed
    shard is persisted individually and is the only stored form of its
    database, so raising ``num_training_databases`` re-executes only
    the new databases' workloads, and a stored context whose shard entry
    vanished re-executes exactly that shard.
    """
    from repro.experiments.cache import ArtifactStore, cache_enabled

    scale = scale or ExperimentScale.default()
    if use_cache is None:
        use_cache = cache_enabled()
    store = (store or ArtifactStore()) if use_cache else None

    # 1. Training fleet + corpus (random physical designs included,
    #    §4.1): hydrate specs on demand, shard per database, reuse any
    #    shard the store has already paid for.  A bad worker count fails
    #    here, before any shard is loaded or run, warm cache or cold.
    specs = generate_training_database_specs(
        scale.num_training_databases, base_seed=scale.seed,
        min_rows=scale.training_db_min_rows,
        max_rows=scale.training_db_max_rows,
    )
    corpus = collect_training_corpus(
        specs, scale.queries_per_database,
        seed=scale.seed,
        random_indexes_per_database=scale.random_indexes_per_database,
        noise_sigma=scale.training_noise_sigma,
        workers=workers,
        store=store,
    )
    if store is not None:
        cached = store.load_context(scale, corpus, with_imdb_pool)
        if cached is not None:
            return cached

    rng = np.random.default_rng(scale.seed)

    # 2. Zero-shot models (the one-time training effort).
    zero_shot_models = train_zero_shot_models(corpus, scale)

    # 3. The unseen evaluation database and its benchmark workloads.
    imdb = make_imdb_database(scale=scale.imdb_scale,
                              seed=scale.seed + 17)
    evaluation_records = {}
    for benchmark in BENCHMARK_NAMES:
        queries = make_benchmark_workload(
            imdb, benchmark, scale.evaluation_queries,
            seed=int(rng.integers(0, 2**31 - 1)),
        )
        runner = WorkloadRunner(imdb, seed=int(rng.integers(0, 2**31 - 1)),
                                noise_sigma=scale.evaluation_noise_sigma)
        evaluation_records[benchmark] = runner.run(queries)

    # 4. IMDB training pool for the workload-driven baselines.  The paper
    #    stresses that these queries must be *executed* on the new
    #    database before a workload-driven model can be trained — the
    #    cost Figure 3's right panel quantifies.
    imdb_pool: list[ExecutedQueryRecord] = []
    if with_imdb_pool:
        pool_queries = generate_workload(imdb, WorkloadSpec(
            num_queries=scale.pool_size,
            seed=int(rng.integers(0, 2**31 - 1)),
        ))
        runner = WorkloadRunner(imdb, seed=int(rng.integers(0, 2**31 - 1)),
                                noise_sigma=scale.training_noise_sigma)
        imdb_pool = runner.run(pool_queries)

    context = ExperimentContext(
        scale=scale,
        corpus=corpus,
        zero_shot_models=zero_shot_models,
        imdb=imdb,
        evaluation_records=evaluation_records,
        imdb_pool=imdb_pool,
    )
    if store is not None:
        store.save_context(context, with_imdb_pool)
    return context
