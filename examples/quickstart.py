"""Quickstart: train a zero-shot cost model, predict on an unseen database.

The workflow mirrors the paper's Figure 1:

1. generate a fleet of training databases (stand-ins for the paper's 19
   public datasets),
2. run a random workload on each and log (plan, runtime) pairs,
3. train the zero-shot model through the unified estimator API
   (``get_estimator("zero-shot")``) on the transferable graph encoding,
4. predict runtimes for a database the model has NEVER seen — here an
   IMDB-shaped database — without executing a single training query on
   it, serving predictions through the batching/caching
   ``repro.serve.CostModelService``.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.db import generate_training_database_specs, make_imdb_database
from repro.models import TrainerConfig, get_estimator, q_error_stats
from repro.serve import CostModelService
from repro.workload import (
    WorkloadRunner,
    collect_training_corpus,
    make_benchmark_workload,
)


def main() -> None:
    # ------------------------------------------------------------------
    # 1-2. Training fleet + one-time training-data collection.
    # ------------------------------------------------------------------
    print("Generating 5 training databases and collecting workloads ...")
    specs = generate_training_database_specs(
        5, base_seed=1, min_rows=1_000, max_rows=20_000)
    corpus = collect_training_corpus(specs, queries_per_database=120, seed=1,
                                     random_indexes_per_database=2)
    print(f"  collected {corpus.num_queries} executed queries "
          f"on {corpus.num_databases} databases")

    # ------------------------------------------------------------------
    # 3. Train the zero-shot estimator (estimated cardinalities: the
    #    deployable configuration — no execution needed at inference).
    #    The estimator owns its featurization: it consumes the executed
    #    records directly.
    # ------------------------------------------------------------------
    print("Training the zero-shot cost model ...")
    model = get_estimator("zero-shot")
    model.fit(corpus.all_records(), corpus.databases,
              TrainerConfig(epochs=50, batch_size=64))
    history = model.history
    print(f"  best validation loss {history.best_validation_loss:.3f} "
          f"(epoch {history.best_epoch})")

    # ------------------------------------------------------------------
    # 4. Zero-shot inference on the unseen IMDB database, served through
    #    the micro-batching prediction service.
    # ------------------------------------------------------------------
    print("Evaluating on the UNSEEN IMDB database (JOB-light workload) ...")
    imdb = make_imdb_database(scale=0.3, seed=42)
    queries = make_benchmark_workload(imdb, "job-light", 30, seed=7)
    records = WorkloadRunner(imdb, seed=7, noise_sigma=0.05).run(queries)

    service = CostModelService(model, imdb)
    predictions = service.predict_runtime([r.plan for r in records])
    truths = np.array([r.runtime_seconds for r in records])

    stats = q_error_stats(predictions, truths)
    print(f"\nZero-shot Q-errors on the unseen database: {stats}")
    print("\nSample predictions:")
    for record, predicted, truth in list(zip(records, predictions, truths))[:5]:
        print(f"  pred {predicted * 1e3:8.1f} ms   true {truth * 1e3:8.1f} ms"
              f"   | {str(record.query)[:70]}...")

    # The service also answers raw SQL (parsed + planned internally) and
    # caches per-plan featurization under an LRU bound.
    sql = "SELECT COUNT(*) FROM title t WHERE t.production_year > 2000"
    print(f"\nService prediction for ad-hoc SQL: "
          f"{service.predict_runtime([sql])[0] * 1e3:.1f} ms  "
          f"(cache hit rate so far: {service.stats.hit_rate:.0%})")


if __name__ == "__main__":
    main()
