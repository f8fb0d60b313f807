"""The optional ``system`` node: off = bit-identical encoding,
on = one machine node fanned out to every plan operator."""

import math

import numpy as np
import pytest

from repro.engine import execute_plan
from repro.errors import FeaturizationError
from repro.featurize import NODE_TYPES, ZeroShotFeaturizer
from repro.featurize.graph import (
    FEATURE_DIMS,
    SYSTEM_FEATURE_FIELDS,
    CardinalitySource,
)
from repro.optimizer import plan_query
from repro.runtime import SystemParameters
from repro.sql import parse_query

pytestmark = pytest.mark.hardware

QUERY = ("SELECT COUNT(*) FROM title t, cast_info ci "
         "WHERE t.id = ci.movie_id AND t.production_year > 2000")


@pytest.fixture(scope="module")
def executed_plan(tiny_imdb):
    plan = plan_query(tiny_imdb, parse_query(QUERY))
    execute_plan(tiny_imdb, plan)
    return plan


def test_system_is_the_last_node_type():
    """Appended, never inserted: historical type codes must not move."""
    assert NODE_TYPES[-1] == "system"
    assert NODE_TYPES[:6] == ("plan_op", "table", "column", "predicate",
                              "aggregate", "index")
    assert FEATURE_DIMS["system"] == len(SYSTEM_FEATURE_FIELDS)


def test_flag_off_encodes_no_system_node(executed_plan, tiny_imdb):
    graph = ZeroShotFeaturizer(CardinalitySource.ACTUAL).featurize(
        executed_plan, tiny_imdb)
    assert "system" not in graph.node_type_of
    assert graph.feature_matrix("system").shape[0] == 0


def test_flag_on_adds_one_fanned_out_machine_node(executed_plan, tiny_imdb):
    machine = SystemParameters.slow_disk()
    featurizer = ZeroShotFeaturizer(CardinalitySource.ACTUAL,
                                    system_features=True, system=machine)
    graph = featurizer.featurize(executed_plan, tiny_imdb)
    system_ids = [node_id for node_id, node_type
                  in enumerate(graph.node_type_of)
                  if node_type == "system"]
    assert len(system_ids) == 1
    system_id = system_ids[0]
    # One edge into every plan operator.
    plan_ops = {node_id for node_id, node_type
                in enumerate(graph.node_type_of)
                if node_type == "plan_op"}
    fanout = {child for parent, child in graph.edges if parent == system_id}
    assert fanout == plan_ops
    # Features are the log coefficients, in SYSTEM_FEATURE_FIELDS order.
    expected = [math.log(getattr(machine, name))
                for name in SYSTEM_FEATURE_FIELDS]
    np.testing.assert_allclose(graph.feature_matrix("system")[0], expected)


def test_flag_on_leaves_the_rest_of_the_encoding_untouched(
        executed_plan, tiny_imdb):
    """The system node is purely additive: every pre-existing node,
    feature and edge is bit-identical with the flag on."""
    plain = ZeroShotFeaturizer(CardinalitySource.ACTUAL).featurize(
        executed_plan, tiny_imdb)
    aware = ZeroShotFeaturizer(
        CardinalitySource.ACTUAL, system_features=True,
    ).featurize(executed_plan, tiny_imdb)
    assert aware.node_type_of[:len(plain.node_type_of)] == plain.node_type_of
    assert aware.root == plain.root
    for node_type in NODE_TYPES[:-1]:
        np.testing.assert_array_equal(aware.feature_matrix(node_type),
                                      plain.feature_matrix(node_type))
    assert set(plain.edges) <= set(aware.edges)


def test_per_call_system_overrides_the_default(executed_plan, tiny_imdb):
    featurizer = ZeroShotFeaturizer(CardinalitySource.ACTUAL,
                                    system_features=True,
                                    system=SystemParameters())
    default = featurizer.featurize(executed_plan, tiny_imdb)
    slow = featurizer.featurize(executed_plan, tiny_imdb,
                                system=SystemParameters.slow_disk())
    assert not np.array_equal(default.feature_matrix("system"),
                              slow.feature_matrix("system"))


def test_system_without_flag_rejected_eagerly(executed_plan, tiny_imdb):
    with pytest.raises(FeaturizationError, match="system_features"):
        ZeroShotFeaturizer(CardinalitySource.ACTUAL,
                           system=SystemParameters())
    featurizer = ZeroShotFeaturizer(CardinalitySource.ACTUAL)
    with pytest.raises(FeaturizationError, match="system_features"):
        featurizer.featurize(executed_plan, tiny_imdb,
                             system=SystemParameters())
