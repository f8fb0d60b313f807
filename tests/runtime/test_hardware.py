"""The hardware axis: named system configs, resource-model
regressions, and cost monotonicity across machines."""

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import SyntheticDatabaseSpec, generate_database
from repro.engine import execute_plan
from repro.errors import ExecutionError
from repro.optimizer import plan_query
from repro.plans.operators import HashAggregate
from repro.plans.plan import walk_plan
from repro.runtime import (
    RuntimeSimulator,
    SystemParameters,
    available_system_configs,
    get_system_config,
)
from repro.sql import parse_query
from repro.workload import WorkloadSpec, generate_workload
from repro.workload.corpus import create_random_indexes

pytestmark = pytest.mark.hardware


def simulate(db, text, system=None):
    plan = plan_query(db, parse_query(text))
    execute_plan(db, plan)
    simulator = RuntimeSimulator(db, system=system or SystemParameters(),
                                 noise_sigma=0.0)
    return simulator.simulate(plan), plan


# ----------------------------------------------------------------------
# miss_fraction regression: empty tables read nothing.
# ----------------------------------------------------------------------
class TestMissFraction:
    def test_empty_table_misses_nothing(self):
        system = SystemParameters()
        assert system.miss_fraction(0.0) == 0.0
        assert system.miss_fraction(-1.0) == 0.0

    def test_small_table_pays_only_hot_misses(self):
        system = SystemParameters()
        pages = system.buffer_pool_pages * 0.5
        assert system.miss_fraction(pages) == system.hot_miss_fraction

    def test_large_table_mostly_misses(self):
        system = SystemParameters()
        assert system.miss_fraction(10_000.0) > 0.9


# ----------------------------------------------------------------------
# The named system configurations.
# ----------------------------------------------------------------------
class TestNamedSystemConfigs:
    def test_the_six_machines_are_named(self):
        assert available_system_configs() == (
            "big-memory", "default", "fast-disk", "faster-cpu", "mid-range",
            "slow-disk")
        assert get_system_config("default") == SystemParameters()
        assert get_system_config("mid-range") == SystemParameters.mid_range()

    def test_unknown_name_lists_available(self):
        with pytest.raises(ExecutionError, match="available:.*default"):
            get_system_config("quantum-annealer")

    @pytest.mark.parametrize("name", available_system_configs())
    def test_each_machine_travels_as_json(self, name):
        machine = get_system_config(name)
        payload = json.loads(json.dumps(machine.to_dict()))
        assert SystemParameters.from_dict(payload) == machine
        assert all(np.isfinite(value) and value > 0
                   for value in payload.values())

    def test_no_two_names_share_a_machine(self):
        """A name picks out one machine: a second name for the same
        coefficients would make the hardware axis of a fleet ambiguous."""
        machines = [get_system_config(name)
                    for name in available_system_configs()]
        assert all(a != b for i, a in enumerate(machines)
                   for b in machines[i + 1:])


class TestSystemConfigSerialization:
    def test_dict_round_trip(self):
        machine = SystemParameters.slow_disk()
        assert SystemParameters.from_dict(machine.to_dict()) == machine

    def test_unknown_keys_rejected(self):
        with pytest.raises(ExecutionError, match="gpu_flops"):
            SystemParameters.from_dict({"gpu_flops": 1e12})


# ----------------------------------------------------------------------
# Simulator resource-model regressions (the HashAggregate fixes).
# ----------------------------------------------------------------------
GROUPED = "SELECT ci.person_id, COUNT(*) FROM cast_info ci GROUP BY ci.person_id"


def _grouping_node(plan):
    nodes = [n for n in plan.nodes() if isinstance(n, HashAggregate)]
    assert nodes, "plan has no HashAggregate"
    return nodes[0]


class TestAggregateResourceModel:
    def test_group_table_memory_clamped_at_work_mem(self, tiny_imdb):
        small = replace(SystemParameters(), work_mem_tuples=50.0)
        plan = plan_query(tiny_imdb, parse_query(GROUPED))
        execute_plan(tiny_imdb, plan)
        node = _grouping_node(plan)
        simulator = RuntimeSimulator(tiny_imdb, system=small, noise_sigma=0.0)
        groups = simulator._actual(node)
        assert groups > small.work_mem_tuples  # the regression's premise
        # Clamped exactly at work_mem, like hash builds and sorts —
        # not growing linearly with the number of groups.
        assert simulator._node_memory_bytes(node) == \
            small.work_mem_tuples * (node.est_width + 48.0)

    def test_spilling_aggregate_reads_pages_and_costs_time(self, tiny_imdb):
        small = replace(SystemParameters(), work_mem_tuples=50.0)
        roomy = replace(SystemParameters(), work_mem_tuples=1e9)
        spilled, _ = simulate(tiny_imdb, GROUPED, system=small)
        in_memory, _ = simulate(tiny_imdb, GROUPED, system=roomy)
        # The group table exceeds work_mem: spill traffic shows up in
        # both the IO account and the runtime.
        assert spilled.io_pages > in_memory.io_pages
        assert spilled.total_seconds > in_memory.total_seconds
        assert spilled.memory_peak_bytes < in_memory.memory_peak_bytes


# ----------------------------------------------------------------------
# Monotonicity across machines.
# ----------------------------------------------------------------------
WORKLOAD = (
    "SELECT COUNT(*) FROM title t",
    "SELECT COUNT(*) FROM cast_info ci WHERE ci.role_id = 1",
    ("SELECT COUNT(*) FROM title t, cast_info ci "
     "WHERE t.id = ci.movie_id"),
    ("SELECT COUNT(*) FROM title t, movie_info_idx mi "
     "WHERE t.id = mi.movie_id AND t.production_year > 2000"),
    "SELECT t.kind_id, COUNT(*) FROM title t GROUP BY t.kind_id",
)


#: Seconds may fall by rounding alone: an index nested loop is charged
#: as the difference of two inner index-scan costs, whose row terms
#: cancel only to the last bits of those costs, each at most the plan's
#: runtime.  Rounding is allowed this share of the raised plan's runtime.
SECONDS_RTOL = 1e-12


def assert_monotone_in_rows(simulator, plan, runtime):
    """Raising one operator's ``actual_rows`` (+1, x2+1, +30 000) never
    lowers the plan's runtime, any operator's seconds, the memory peak
    or the IO.  Only non-decrease: the spill and probe-cost terms step
    up by design."""
    for node in walk_plan(plan.root):
        rows = node.actual_rows
        for raised in (rows + 1, 2 * rows + 1, rows + 30_000):
            node.actual_rows = raised
            try:
                more = simulator.simulate(plan)
            finally:
                node.actual_rows = rows
            context = (node.operator_name, rows, raised)
            assert more.memory_peak_bytes >= runtime.memory_peak_bytes, \
                context
            assert more.io_pages >= runtime.io_pages, context
            pairs = [(more.total_seconds, runtime.total_seconds)] + [
                (more.node_seconds[key], seconds)
                for key, seconds in runtime.node_seconds.items()]
            rounding = SECONDS_RTOL * more.total_seconds
            for raised_seconds, seconds in pairs:
                assert raised_seconds >= seconds - rounding, context


class TestCrossMachineMonotonicity:
    def test_faster_cpu_is_never_slower(self, tiny_imdb):
        """faster_cpu only lowers CPU coefficients, so no plan may get
        slower — and CPU-bound plans must get strictly faster."""
        improvements = []
        for text in WORKLOAD:
            base, _ = simulate(tiny_imdb, text)
            fast, _ = simulate(tiny_imdb, text,
                               system=SystemParameters.faster_cpu())
            assert fast.total_seconds <= base.total_seconds, text
            improvements.append(base.total_seconds - fast.total_seconds)
        assert max(improvements) > 0.0

    @settings(max_examples=20, deadline=None)
    @given(database_seed=st.integers(0, 2**31 - 1),
           num_tables=st.integers(2, 7),
           max_rows=st.sampled_from([2_000, 40_000]),
           num_indexes=st.integers(0, 2),
           workload_seed=st.integers(0, 2**31 - 1))
    def test_generated_plans_obey_physics(self, database_seed, num_tables,
                                          max_rows, num_indexes,
                                          workload_seed):
        """Over generated databases (indexes included) and workloads,
        simulated without noise: on every named machine each executed
        plan's runtime, every operator's seconds, its memory peak and
        its IO are finite and non-negative, and ``faster-cpu`` is never
        slower than ``default``.  Tables of up to 40 000 rows cross
        ``work_mem_tuples`` (25 000), so spilling plans are among them;
        the spill terms step there by design, so nothing here asks for
        continuity.  Each is also monotone in every operator's rows
        (:func:`assert_monotone_in_rows`)."""
        database = generate_database(SyntheticDatabaseSpec(
            "physics", seed=database_seed, num_tables=num_tables,
            min_rows=200, max_rows=max_rows))
        create_random_indexes(database, num_indexes,
                              np.random.default_rng(database_seed))
        simulators = {name: RuntimeSimulator(
            database, system=get_system_config(name), noise_sigma=0.0)
            for name in available_system_configs()}
        for query in generate_workload(database, WorkloadSpec(
                num_queries=25, seed=workload_seed)):
            plan = plan_query(database, query)
            execute_plan(database, plan)
            seconds = {}
            for name, simulator in simulators.items():
                runtime = simulator.simulate(plan)
                values = [runtime.total_seconds, runtime.memory_peak_bytes,
                          runtime.io_pages, *runtime.node_seconds.values()]
                assert np.isfinite(values).all() and min(values) >= 0, name
                seconds[name] = runtime.total_seconds
                assert_monotone_in_rows(simulator, plan, runtime)
            assert seconds["faster-cpu"] <= seconds["default"]

    def test_slow_disk_never_speeds_up_hot_io(self, tiny_imdb):
        """slow_disk raises both page-read costs *and* the buffer pool;
        for tables hot in both pools the bigger pool cannot help, so no
        plan may get faster — only the per-miss cost changes."""
        for table in ("title", "cast_info", "movie_info_idx"):
            pages = tiny_imdb.table_data(table).num_pages
            # Precondition: hot in the default pool too, so slow_disk's
            # larger pool buys nothing (a mid-size table could otherwise
            # legitimately *gain* from the 1000-page pool).
            assert pages <= SystemParameters().buffer_pool_pages * 0.5, (
                f"{table} has {pages} pages; pick smaller fixtures"
            )
        slowdowns = []
        for text in WORKLOAD:
            base, _ = simulate(tiny_imdb, text)
            slow, _ = simulate(tiny_imdb, text,
                               system=SystemParameters.slow_disk())
            assert slow.total_seconds >= base.total_seconds, text
            slowdowns.append(slow.total_seconds - base.total_seconds)
        assert max(slowdowns) > 0.0

    def test_mid_range_interpolates(self):
        """The holdout machine must sit inside the training machines'
        coefficient ranges on every axis (transfer = interpolation)."""
        fleet = [get_system_config(name)
                 for name in ("default", "faster-cpu", "slow-disk",
                              "fast-disk", "big-memory")]
        holdout = get_system_config("mid-range").to_dict()
        for name, value in holdout.items():
            values = [machine.to_dict()[name] for machine in fleet]
            assert min(values) <= value <= max(values), name
