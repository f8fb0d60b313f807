"""Runtime simulator: monotonicity, noise, operator sensitivity."""

import numpy as np
import pytest

from repro.engine import execute_plan
from repro.errors import PlanError
from repro.optimizer import plan_query
from repro.optimizer.planner import PlannerOptions
from repro.runtime import RuntimeSimulator, SystemParameters
from repro.runtime.simulator import QueryRuntime
from repro.sql import parse_query


def simulate(db, text, seed=0, options=None, noise=0.0):
    plan = plan_query(db, parse_query(text), options)
    execute_plan(db, plan)
    simulator = RuntimeSimulator(db, noise_sigma=noise,
                                 rng=np.random.default_rng(seed))
    return simulator.simulate(plan), plan


class TestBasicProperties:
    def test_positive_and_overhead_bounded(self, tiny_imdb):
        runtime, _ = simulate(tiny_imdb, "SELECT COUNT(*) FROM title t")
        assert runtime.total_seconds > SystemParameters().query_overhead_s

    def test_unexecuted_plan_rejected(self, tiny_imdb):
        plan = plan_query(tiny_imdb, parse_query("SELECT COUNT(*) FROM title t"))
        simulator = RuntimeSimulator(tiny_imdb)
        with pytest.raises(PlanError):
            simulator.simulate(plan)

    def test_deterministic_without_noise(self, tiny_imdb):
        a, _ = simulate(tiny_imdb, "SELECT COUNT(*) FROM title t", noise=0.0)
        b, _ = simulate(tiny_imdb, "SELECT COUNT(*) FROM title t", noise=0.0)
        assert a.total_seconds == b.total_seconds

    def test_noise_is_multiplicative_and_seeded(self, tiny_imdb):
        a, _ = simulate(tiny_imdb, "SELECT COUNT(*) FROM title t",
                        seed=1, noise=0.1)
        b, _ = simulate(tiny_imdb, "SELECT COUNT(*) FROM title t",
                        seed=1, noise=0.1)
        c, _ = simulate(tiny_imdb, "SELECT COUNT(*) FROM title t",
                        seed=2, noise=0.1)
        assert a.total_seconds == b.total_seconds
        assert a.total_seconds != c.total_seconds
        assert a.noise_factor != 1.0

    @pytest.mark.parametrize("sigma", [-0.1, float("nan"), float("inf")])
    def test_bad_noise_rejected(self, tiny_imdb, sigma):
        """NaN once passed the check and silently switched noise off."""
        with pytest.raises(ValueError):
            RuntimeSimulator(tiny_imdb, noise_sigma=sigma)

    def test_node_seconds_recorded(self, tiny_imdb):
        runtime, plan = simulate(
            tiny_imdb,
            "SELECT COUNT(*) FROM title t, cast_info ci WHERE t.id = ci.movie_id",
        )
        assert isinstance(runtime, QueryRuntime)
        for node in plan.nodes():
            assert runtime.seconds_for(node) >= 0.0


class TestMonotonicity:
    def test_bigger_join_takes_longer(self, tiny_imdb):
        small, _ = simulate(tiny_imdb, (
            "SELECT COUNT(*) FROM title t, movie_info_idx mi "
            "WHERE t.id = mi.movie_id AND t.production_year > 2020"
        ))
        large, _ = simulate(tiny_imdb, (
            "SELECT COUNT(*) FROM title t, cast_info ci "
            "WHERE t.id = ci.movie_id"
        ))
        assert large.total_seconds > small.total_seconds

    def test_more_predicates_cost_cpu(self, tiny_imdb):
        base, _ = simulate(tiny_imdb, "SELECT COUNT(*) FROM cast_info ci")
        filtered, _ = simulate(tiny_imdb, (
            "SELECT COUNT(*) FROM cast_info ci WHERE ci.role_id = 1 "
            "AND ci.nr_order < 5 AND ci.person_id < 1000"
        ))
        assert filtered.total_seconds > base.total_seconds * 0.9

    def test_scale_increases_runtime(self):
        from repro.db import make_imdb_database
        small_db = make_imdb_database(scale=0.02, seed=1)
        big_db = make_imdb_database(scale=0.2, seed=1)
        text = ("SELECT COUNT(*) FROM title t, cast_info ci "
                "WHERE t.id = ci.movie_id")
        small, _ = simulate(small_db, text)
        big, _ = simulate(big_db, text)
        assert big.total_seconds > small.total_seconds * 2


class TestOperatorSensitivity:
    def test_join_strategies_have_distinct_runtimes(self, tiny_imdb):
        """Different physical operators must produce different runtimes —
        otherwise there is nothing for the model to learn from operator
        types."""
        text = ("SELECT COUNT(*) FROM title t, cast_info ci "
                "WHERE t.id = ci.movie_id AND t.production_year > 2010")
        runtimes = {}
        for name, options in {
            "hash": PlannerOptions(enable_nestloop=False),
            "nested loop": PlannerOptions(enable_hashjoin=False),
        }.items():
            runtime, _ = simulate(tiny_imdb, text, options=options)
            runtimes[name] = runtime.total_seconds
        assert runtimes["hash"] != runtimes["nested loop"]

    def test_system_parameters_matter(self, tiny_imdb):
        plan = plan_query(tiny_imdb, parse_query(
            "SELECT COUNT(*) FROM title t, cast_info ci WHERE t.id = ci.movie_id"
        ))
        execute_plan(tiny_imdb, plan)
        default = RuntimeSimulator(tiny_imdb, noise_sigma=0.0).simulate(plan)
        fast = RuntimeSimulator(tiny_imdb, system=SystemParameters.faster_cpu(),
                                noise_sigma=0.0).simulate(plan)
        assert fast.total_seconds < default.total_seconds

    def test_miss_fraction_behaviour(self):
        system = SystemParameters()
        assert system.miss_fraction(10) == pytest.approx(
            system.hot_miss_fraction)
        assert system.miss_fraction(100_000) > 0.9
        # An empty table has no pages to miss on.
        assert system.miss_fraction(0) == 0.0

    def test_probe_cost_cache_thrash(self):
        system = SystemParameters()
        small = system.probe_cost(1_000)
        large = system.probe_cost(1_000_000)
        assert large > small


class TestRuntimeVsOptimizerCost:
    def test_runtime_correlates_with_cost_but_not_perfectly(self, tiny_imdb):
        """Optimizer cost should be informative (correlation) yet not a
        perfect predictor (otherwise the Scaled-Optimizer-Cost baseline
        would be unbeatable, contradicting the paper)."""
        texts = [
            "SELECT COUNT(*) FROM title t",
            "SELECT COUNT(*) FROM title t WHERE t.id < 50",
            "SELECT COUNT(*) FROM cast_info ci",
            "SELECT COUNT(*) FROM title t, cast_info ci WHERE t.id = ci.movie_id",
            "SELECT COUNT(*) FROM title t, movie_keyword mk "
            "WHERE t.id = mk.movie_id AND t.production_year > 2015",
            "SELECT MIN(t.rating) FROM title t, movie_info mi "
            "WHERE t.id = mi.movie_id AND mi.info_type_id = 2",
        ]
        costs, runtimes = [], []
        for text in texts:
            runtime, plan = simulate(tiny_imdb, text)
            costs.append(plan.total_cost)
            runtimes.append(runtime.total_seconds)
        correlation = np.corrcoef(np.log(costs), np.log(runtimes))[0, 1]
        assert correlation > 0.5
        # Not a perfect linear relation in log space.
        residual = np.polyfit(np.log(costs), np.log(runtimes), 1, full=True)[1]
        assert residual[0] > 1e-4
