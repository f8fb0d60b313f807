"""Zero-shot cardinality estimation: learn per-operator cardinalities
once, correct the optimizer on a database the model has never seen.

The paper names cardinality estimation as the next task for the
transferable plan representation ("beyond cost estimation").  This
example runs the whole loop:

1. collect executed workloads on a small training fleet — every record
   carries per-operator true cardinalities (``operator_cardinalities``),
2. train the multi-task cardinality head
   (``get_estimator("zero-shot-cardinality")``: runtime + per-operator
   log-cardinality losses over one message-passing trunk),
3. predict per-operator cardinalities for plans on an UNSEEN IMDB
   database and compare heuristic vs. learned Q-errors,
4. inject the learned estimates into the DP join enumerator via
   ``LearnedCardinalityEstimator`` and re-plan a query.

Run:  python examples/cardinality_estimation.py
"""

import numpy as np

from repro.db import generate_training_database_specs, make_imdb_database
from repro.models import TrainerConfig, get_estimator, q_error_stats
from repro.models.cardinality import record_cardinalities
from repro.optimizer import LearnedCardinalityEstimator, Planner
from repro.plans.plan import walk_plan
from repro.workload import (
    WorkloadRunner,
    collect_training_corpus,
    make_benchmark_workload,
)


def main() -> None:
    # ------------------------------------------------------------------
    # 1. Training fleet with per-operator cardinality labels.
    # ------------------------------------------------------------------
    print("Collecting training workloads (with per-operator labels) ...")
    specs = generate_training_database_specs(
        4, base_seed=3, min_rows=500, max_rows=8_000)
    corpus = collect_training_corpus(specs, queries_per_database=80, seed=3,
                                     random_indexes_per_database=1)
    print(f"  {corpus.num_queries} executed queries across "
          f"{corpus.num_databases} databases")

    # ------------------------------------------------------------------
    # 2. Train the multi-task cardinality head.
    # ------------------------------------------------------------------
    print("Training the zero-shot cardinality head ...")
    estimator = get_estimator("zero-shot-cardinality")
    estimator.fit(corpus.all_records(), corpus.databases,
                  TrainerConfig(epochs=40, batch_size=32))

    # ------------------------------------------------------------------
    # 3. Heuristic vs. learned per-operator Q-error on unseen IMDB.
    # ------------------------------------------------------------------
    print("Evaluating on the UNSEEN IMDB database ...")
    imdb = make_imdb_database(scale=0.15, seed=19)
    queries = make_benchmark_workload(imdb, "synthetic", 25, seed=5)
    records = WorkloadRunner(imdb, seed=5).run(queries)

    predicted = estimator.predict_cardinalities([r.plan for r in records],
                                                imdb)
    actual, heuristic, learned = [], [], []
    for record, cards in zip(records, predicted):
        actual.append(np.maximum(record_cardinalities(record), 1.0))
        heuristic.append(np.maximum(
            [n.est_rows for n in walk_plan(record.plan.root)], 1.0))
        learned.append(np.maximum(cards, 1.0))
    truth = np.concatenate(actual)
    print(f"  heuristic per-operator Q-error: "
          f"{q_error_stats(np.concatenate(heuristic), truth)}")
    print(f"  learned   per-operator Q-error: "
          f"{q_error_stats(np.concatenate(learned), truth)}")

    # ------------------------------------------------------------------
    # 4. Drive the DP join enumerator with learned cardinalities.
    # ------------------------------------------------------------------
    learned_optimizer = LearnedCardinalityEstimator(imdb, estimator)
    changed = 0
    for record in records[:10]:
        classical = Planner(imdb).plan(record.query)
        relearned = Planner(
            imdb, cardinality_estimator=learned_optimizer
        ).plan(record.query)
        if [n.label() for n in classical.nodes()] != \
                [n.label() for n in relearned.nodes()]:
            changed += 1
    print(f"\nDP planner with learned cardinalities: {changed}/10 plans "
          f"changed ({learned_optimizer.learned_fragments} fragments "
          f"priced by the model, "
          f"{learned_optimizer.fallback_fragments} heuristic fallbacks)")


if __name__ == "__main__":
    main()
