"""Zero-shot index advisor (paper Section 4.1).

Trains a zero-shot cost model on databases with random physical designs,
then recommends indexes for a workload on the UNSEEN IMDB database using
What-If planning — hypothetical indexes are registered, queries are
re-planned, and the model predicts the hypothetical runtimes.  No
training query ever runs on the target database.

Run:  python examples/index_advisor.py
"""

from repro.db import generate_training_database_specs, make_imdb_database
from repro.models import TrainerConfig, get_estimator
from repro.sql import parse_query
from repro.tuning import IndexAdvisor
from repro.workload import WorkloadRunner, collect_training_corpus

TARGET_WORKLOAD = [
    # Selective scans that an index would accelerate dramatically.
    "SELECT COUNT(*) FROM title t WHERE t.votes > 1500000",
    "SELECT COUNT(*) FROM title t WHERE t.votes > 900000 "
    "AND t.production_year > 2018",
    "SELECT MIN(t.production_year) FROM title t, movie_keyword mk "
    "WHERE t.id = mk.movie_id AND mk.keyword_id = 17",
    # A query indexes will not help much (unselective).
    "SELECT COUNT(*) FROM title t WHERE t.production_year > 1950",
]


def main() -> None:
    print("Training a zero-shot model on databases with random indexes ...")
    specs = generate_training_database_specs(
        5, base_seed=3, min_rows=1_000, max_rows=20_000)
    corpus = collect_training_corpus(specs, queries_per_database=120, seed=3,
                                     random_indexes_per_database=3)
    model = get_estimator("zero-shot")
    model.fit(corpus.all_records(), corpus.databases,
              TrainerConfig(epochs=50, batch_size=64))

    imdb = make_imdb_database(scale=0.3, seed=42)
    queries = [parse_query(text) for text in TARGET_WORKLOAD]

    print("\nRecommending indexes for the unseen IMDB workload ...")
    advisor = IndexAdvisor(imdb, model)
    recommendation = advisor.recommend(queries, max_indexes=2)

    print(f"  predicted workload time without new indexes: "
          f"{recommendation.baseline_seconds * 1e3:.1f} ms")
    print(f"  predicted workload time with recommendation:  "
          f"{recommendation.predicted_seconds * 1e3:.1f} ms "
          f"({recommendation.predicted_speedup:.2f}x)")
    for spec in recommendation.indexes:
        print(f"  -> CREATE INDEX ON {spec.table_name}({spec.column_name})")

    # Validate the recommendation by actually building the indexes.
    print("\nValidating against the simulated ground truth ...")
    runner = WorkloadRunner(imdb, seed=11, noise_sigma=0.0)
    before = sum(r.runtime_seconds for r in runner.run(queries))
    for number, spec in enumerate(recommendation.indexes):
        imdb.create_index(f"advised_{number}", spec.table_name,
                          spec.column_name)
    imdb.analyze()
    runner_after = WorkloadRunner(imdb, seed=11, noise_sigma=0.0)
    after = sum(r.runtime_seconds for r in runner_after.run(queries))
    print(f"  true workload time before: {before * 1e3:.1f} ms")
    print(f"  true workload time after:  {after * 1e3:.1f} ms "
          f"({before / max(after, 1e-12):.2f}x speedup)")


if __name__ == "__main__":
    main()
