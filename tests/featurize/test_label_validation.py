"""Labels every featurizer refuses: NaN and infinite values.

One NaN runtime label makes every standardized target NaN, so a fit
would train on garbage without an error; a NaN cardinality label does
the same to the cardinality head.  ``seconds <= 0`` and ``cards < 0``
are both false for NaN (and for ``+inf``), so each label is checked for
finiteness, and the error names the value.
"""

import math
import re

import pytest

from repro.errors import FeaturizationError
from repro.featurize import E2EFeaturizer, MSCNFeaturizer, ZeroShotFeaturizer
from repro.optimizer import plan_query
from repro.sql import parse_query

TEXT = ("SELECT COUNT(*) FROM title t, movie_companies mc "
        "WHERE t.id = mc.movie_id AND t.production_year > 1990")

VALUES = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf}


def zero_shot_runtime(database, plan, value):
    ZeroShotFeaturizer().featurize(plan, database,
                                   target_runtime_seconds=value)


def zero_shot_cardinalities(database, plan, value):
    cards = [10.0] * plan.num_nodes
    cards[-1] = value
    ZeroShotFeaturizer().featurize(plan, database,
                                   operator_cardinalities=cards)


def mscn_runtime(database, plan, value):
    MSCNFeaturizer(database).fit([plan.query]).featurize(
        plan.query, target_runtime_seconds=value)


def e2e_runtime(database, plan, value):
    E2EFeaturizer(database).fit([plan]).featurize(
        plan, target_runtime_seconds=value)


LABELLERS = {
    "zero-shot-runtime": zero_shot_runtime,
    "zero-shot-operator-rows": zero_shot_cardinalities,
    "mscn-runtime": mscn_runtime,
    "e2e-runtime": e2e_runtime,
}


@pytest.mark.parametrize("value", sorted(VALUES))
@pytest.mark.parametrize("labeller", sorted(LABELLERS))
def test_non_finite_label_is_rejected_by_name(tiny_imdb, labeller, value):
    plan = plan_query(tiny_imdb, parse_query(TEXT))
    with pytest.raises(FeaturizationError,
                       match=f"got {re.escape(value)}$"):
        LABELLERS[labeller](tiny_imdb, plan, VALUES[value])


@pytest.mark.parametrize("labeller", sorted(LABELLERS))
def test_finite_labels_still_pass(tiny_imdb, labeller):
    plan = plan_query(tiny_imdb, parse_query(TEXT))
    LABELLERS[labeller](tiny_imdb, plan, 0.25)
