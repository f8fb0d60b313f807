"""Benchmarks E8/E9: the paper's roadmap extensions.

* E8 — resource-consumption prediction (§4.3): the same zero-shot
  architecture trained on memory / I/O labels.
* E9 — zero-shot plan selection (§4.2's naïve approach): the model
  picks among candidate plans; its choices must not be worse than the
  classical optimizer's on true (simulated) runtimes.
"""

import numpy as np

from repro.engine import Executor
from repro.experiments.resources import format_resources, run_resources
from repro.featurize.graph import CardinalitySource
from repro.optimizer.learned_planner import ZeroShotPlanSelector
from repro.runtime import RuntimeSimulator
from repro.workload import make_benchmark_workload


def test_resource_prediction(context):
    result = run_resources(context=context)
    print()
    print(format_resources(result))
    assert result["runtime"].median < 2.0
    assert result["memory"].median < 4.0
    assert result["io"].median < 6.0


def test_zero_shot_plan_selection(context):
    selector = ZeroShotPlanSelector(
        context.imdb, context.estimator(CardinalitySource.ESTIMATED))
    queries = make_benchmark_workload(context.imdb, "scale", 25, seed=2024)
    executor = Executor(context.imdb)
    simulator = RuntimeSimulator(context.imdb, noise_sigma=0.0)

    chosen_seconds = []
    classical_seconds = []
    disagreements = 0
    for query in queries:
        choice = selector.choose(query)
        for plan, bucket in ((choice.plan, chosen_seconds),
                             (choice.classical_plan, classical_seconds)):
            plan.reset_actuals()
            executor.execute(plan)
            bucket.append(simulator.simulate(plan).total_seconds)
        if not choice.agrees_with_classical:
            disagreements += 1
    chosen = float(np.sum(chosen_seconds))
    classical = float(np.sum(classical_seconds))
    print(f"\nworkload runtime: zero-shot choice {chosen * 1e3:.1f} ms vs "
          f"classical optimizer {classical * 1e3:.1f} ms "
          f"({disagreements}/{len(queries)} plans changed)")
    # The learned selector must not lose against the classical optimizer.
    assert chosen <= classical * 1.3
