"""Benchmark E7: ablations of the zero-shot design choices.

Quantifies the contributions DESIGN.md calls out: graph message passing
vs flat pooling of the same features, and cardinality features vs none
(separation of concerns, paper §2.2).
"""

from repro.experiments.ablations import format_ablations, run_ablations


def test_ablations(context):
    result = run_ablations(context=context)
    print()
    print(format_ablations(result))

    full = result["graph (full model)"].median
    flat = result["flat (no message passing)"].median
    no_cards = result["graph (no cardinality features)"].median

    assert full < 2.5
    # Removing cardinality inputs must hurt: they carry the data
    # characteristics the separate (data-driven) estimators provide.
    assert no_cards >= full * 0.95
    # The flat variant loses the plan structure; it must not beat the
    # full model decisively.
    assert flat >= full * 0.8
