"""Benchmark E1/E2: regenerate Figure 3 (all four panels).

Prints the same series the paper plots and checks the qualitative
shape: zero-shot models are competitive out-of-the-box (zero queries on
the evaluation database), workload-driven baselines improve with budget,
and the execution-time panel grows linearly with the training budget.
Both tests read one ``run_figure3`` result, computed once per module.
"""

import pytest

from repro.experiments.figure3 import (
    E2E_NAME,
    MSCN_NAME,
    SCALED_COST_NAME,
    ZERO_SHOT_ESTIMATED,
    ZERO_SHOT_EXACT,
    format_figure3,
    run_figure3,
)
from repro.workload import BENCHMARK_NAMES


@pytest.fixture(scope="module")
def result(context):
    return run_figure3(context=context)


def test_figure3_panels(result):
    print()
    print(format_figure3(result))

    for bench_name in BENCHMARK_NAMES:
        series = result.baseline_series[bench_name]
        zero_shot_exact = result.zero_shot_medians[bench_name][ZERO_SHOT_EXACT]
        zero_shot_est = result.zero_shot_medians[bench_name][ZERO_SHOT_ESTIMATED]

        # Zero-shot lines are sane Q-errors.
        assert 1.0 <= zero_shot_exact < 4.0
        assert 1.0 <= zero_shot_est < 5.0

        # Shape: at the smallest budget, the zero-shot model (exact
        # cards) is competitive with every workload-driven baseline.
        smallest = min(series[MSCN_NAME][0], series[E2E_NAME][0],
                       series[SCALED_COST_NAME][0])
        assert zero_shot_exact <= smallest * 1.6

        # Shape: E2E improves as the training budget grows.
        assert series[E2E_NAME][-1] <= series[E2E_NAME][0] * 1.2


def test_figure3_execution_time(result):
    """Panel 4: the cost of workload-driven training data collection."""
    hours = result.execution_hours
    print(f"\nexecution hours per budget: "
          f"{dict(zip(result.budgets, [round(h, 4) for h in hours]))}")
    # Monotone increasing and roughly proportional to the budget.
    assert all(b > a for a, b in zip(hours, hours[1:]))
    ratio = hours[-1] / hours[0]
    budget_ratio = result.budgets[-1] / result.budgets[0]
    assert ratio > budget_ratio * 0.3
