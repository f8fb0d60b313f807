"""Few-shot adaptation (paper Sections 1 and 4.3).

Compares three ways to get a cost model for a new database:

* **zero-shot** — use the fleet-trained model out of the box,
* **few-shot** — fine-tune it with a handful of queries from the new
  database,
* **from scratch** — train a workload-driven model (E2E) on the same
  handful.

The point of the paper: few-shot needs far fewer queries than training
from scratch, because system behaviour is already internalized.

Run:  python examples/few_shot.py
"""

import numpy as np

from repro.db import generate_training_database_specs, make_imdb_database
from repro.models import TrainerConfig, get_estimator, q_error_stats
from repro.workload import (
    WorkloadRunner,
    WorkloadSpec,
    collect_training_corpus,
    generate_workload,
    make_benchmark_workload,
)


def main() -> None:
    print("One-time effort: train the zero-shot model on 5 databases ...")
    specs = generate_training_database_specs(
        5, base_seed=5, min_rows=1_000, max_rows=20_000)
    corpus = collect_training_corpus(specs, queries_per_database=120, seed=5)
    model = get_estimator("zero-shot")
    model.fit(corpus.all_records(), corpus.databases,
              TrainerConfig(epochs=50, batch_size=64))

    imdb = make_imdb_database(scale=0.3, seed=42)

    # A small adaptation workload executed on the new database.
    support_queries = generate_workload(imdb, WorkloadSpec(num_queries=40,
                                                           seed=31))
    support = WorkloadRunner(imdb, seed=31).run(support_queries)

    # Evaluation workload.
    eval_queries = make_benchmark_workload(imdb, "scale", 30, seed=77)
    evaluation = WorkloadRunner(imdb, seed=77, noise_sigma=0.05) \
        .run(eval_queries)
    eval_plans = [r.plan for r in evaluation]
    truths = np.array([r.runtime_seconds for r in evaluation])

    print("\n1. Zero-shot (0 queries on the new database):")
    print("  ", q_error_stats(model.predict_runtime(eval_plans, imdb),
                              truths))

    print("\n2. Few-shot (fine-tuned on 40 queries):")
    tuned = model.fine_tune(support, imdb)
    print("  ", q_error_stats(tuned.predict_runtime(eval_plans, imdb),
                              truths))

    print("\n3. Workload-driven E2E trained from scratch on the same 40:")
    e2e = get_estimator("e2e")
    e2e.fit(support, imdb, TrainerConfig(epochs=50, batch_size=8))
    # Out-of-vocabulary evaluation plans are priced at the training
    # median by the estimator's adapter.
    print("  ", q_error_stats(e2e.predict_runtime(eval_plans, imdb), truths))


if __name__ == "__main__":
    main()
