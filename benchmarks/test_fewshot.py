"""Benchmark E6: few-shot adaptation vs workload-driven from scratch.

Reproduces the paper's claim (§1, §4.3) that fine-tuning the zero-shot
model needs far fewer queries on the unseen database than training a
workload-driven model from scratch.
"""

from repro.experiments.fewshot_exp import format_fewshot, run_fewshot


def test_fewshot_adaptation(context):
    result = run_fewshot(context=context)
    print()
    print(format_fewshot(result))

    # At the smallest budget: few-shot clearly beats from-scratch.
    assert result.fewshot_medians[0] <= result.from_scratch_medians[0] * 1.1
    # Few-shot never degrades far below the zero-shot starting point.
    assert min(result.fewshot_medians) <= result.zero_shot_median * 1.2
    # From-scratch narrows the gap as the budget grows (sanity of the
    # comparison itself).
    assert result.from_scratch_medians[-1] <= \
        result.from_scratch_medians[0] * 1.5
