"""Benchmark E5: the learning curve over training databases.

Reproduces §3.2's observation that accuracy improves with the number of
training databases and then flattens ("after 19 databases, the
performance stagnated" — at our benchmark scale the fleet is smaller but
the flattening shape is the same).
"""

from repro.experiments.learning_curve import (
    format_learning_curve,
    run_learning_curve,
)


def test_learning_curve(context):
    total = len(context.corpus.databases)
    counts = sorted({1, 2, max(total // 2, 3), total})
    result = run_learning_curve(context=context, database_counts=counts)
    print()
    print(format_learning_curve(result))

    # More databases must not hurt much, and the overall trend improves.
    assert result.median_q_errors[-1] <= result.median_q_errors[0] * 1.1
    # Flattening: the last step changes less than the first step.
    first_step = abs(result.median_q_errors[0] - result.median_q_errors[1])
    last_step = abs(result.median_q_errors[-2] - result.median_q_errors[-1])
    assert last_step <= first_step + 0.5
