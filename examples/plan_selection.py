"""Zero-shot plan selection (paper Section 4.2, the naïve approach).

The classical optimizer picks plans with an analytic cost model whose
assumptions (no caching effects, coarse CPU accounting) are sometimes
wrong.  Here a zero-shot cost model — trained on other databases —
evaluates a Bao-style portfolio of candidate plans per query and picks
the one with the lowest *predicted runtime*, on a database it has never
seen.  We then measure both choices against the simulated ground truth.

Run:  python examples/plan_selection.py
"""

from repro.db import generate_training_database_specs, make_imdb_database
from repro.engine import Executor
from repro.models import TrainerConfig, get_estimator
from repro.optimizer.learned_planner import ZeroShotPlanSelector
from repro.runtime import RuntimeSimulator
from repro.workload import collect_training_corpus, make_benchmark_workload


def main() -> None:
    print("Training the zero-shot model on 6 databases ...")
    specs = generate_training_database_specs(
        6, base_seed=8, min_rows=1_000, max_rows=40_000)
    corpus = collect_training_corpus(specs, queries_per_database=130, seed=8,
                                     random_indexes_per_database=2)
    model = get_estimator("zero-shot")
    model.fit(corpus.all_records(), corpus.databases,
              TrainerConfig(epochs=50, batch_size=64))

    imdb = make_imdb_database(scale=0.4, seed=42)
    queries = make_benchmark_workload(imdb, "scale", 20, seed=13)
    # All candidate plans of a query are priced in one batched call.
    selector = ZeroShotPlanSelector(imdb, model)
    executor = Executor(imdb)
    simulator = RuntimeSimulator(imdb, noise_sigma=0.0)

    chosen_total = 0.0
    classical_total = 0.0
    changed = 0
    print("\nSelecting plans for 20 queries on the unseen IMDB database ...")
    for query in queries:
        choice = selector.choose(query)
        runtimes = {}
        for label, plan in (("chosen", choice.plan),
                            ("classical", choice.classical_plan)):
            plan.reset_actuals()
            executor.execute(plan)
            runtimes[label] = simulator.simulate(plan).total_seconds
        chosen_total += runtimes["chosen"]
        classical_total += runtimes["classical"]
        if not choice.agrees_with_classical:
            changed += 1
            delta = runtimes["classical"] - runtimes["chosen"]
            print(f"  changed plan ({choice.num_candidates} candidates): "
                  f"{delta * 1e3:+.1f} ms vs classical")

    print(f"\n{changed}/{len(queries)} plans changed by the learned selector")
    print(f"workload runtime, classical optimizer: {classical_total * 1e3:.1f} ms")
    print(f"workload runtime, zero-shot selection: {chosen_total * 1e3:.1f} ms")
    if chosen_total < classical_total:
        print(f"-> {classical_total / chosen_total:.2f}x faster end to end")


if __name__ == "__main__":
    main()
