"""Benchmark E3/E4: regenerate Table 1 (including the Index row).

Prints the paper's table layout (median / 95th / max per workload for
both cardinality sources) and checks the shape: medians in the paper's
ballpark, and the what-if Index row showing the heavier tail the paper
reports.  Both tests read one ``run_table1`` result, computed once per
module.
"""

import pytest

from repro.experiments.table1 import format_table1, run_table1
from repro.featurize.graph import CardinalitySource


@pytest.fixture(scope="module")
def result(context):
    return run_table1(context=context)


def test_table1_rows(result):
    print()
    print(format_table1(result))

    assert tuple(result) == ("Scale", "Synthetic", "JOB-light", "Index")
    for row in result:
        for source in (CardinalitySource.ACTUAL, CardinalitySource.ESTIMATED):
            stats = result[row][source]
            assert 1.0 <= stats.median <= stats.percentile95 <= stats.maximum
            # Paper ballpark: medians between 1.1 and ~2.5 at our scale.
            assert stats.median < 3.0


def test_table1_index_row(result):
    index_exact = result["Index"][CardinalitySource.ACTUAL]
    plain_rows = [result[r][CardinalitySource.ACTUAL]
                  for r in ("Scale", "Synthetic", "JOB-light")]
    print(f"\nIndex row (exact): {index_exact}")
    # The what-if row keeps a reasonable median but a heavier tail than
    # the medians of the plain cost-estimation rows (paper Table 1).
    assert index_exact.median < 3.0
    assert index_exact.maximum > max(r.median for r in plain_rows)
