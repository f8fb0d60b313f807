"""The hardware axis of the training fleet: machine assignment,
system-aware shard caching, and corpus round-trips through the store."""

import pytest

from repro.db import generate_training_database_specs
from repro.errors import ExperimentError
from repro.experiments.cache import ArtifactStore, shard_key
from repro.runtime import SystemParameters
from repro.workload import collect_training_corpus
from repro.workload.backends import (
    execute_shard,
    make_corpus_shards,
    resolve_system_assignment,
)

pytestmark = pytest.mark.hardware


@pytest.fixture(scope="module")
def tiny_specs():
    return generate_training_database_specs(3, base_seed=23,
                                            min_rows=200, max_rows=900)


class TestSystemAssignment:
    def test_none_means_stock_machine_everywhere(self, tiny_specs):
        machines = resolve_system_assignment(tiny_specs, None)
        assert machines == [SystemParameters()] * len(tiny_specs)

    def test_single_machine_fleet_wide(self, tiny_specs):
        fast = SystemParameters.faster_cpu()
        assert resolve_system_assignment(tiny_specs, fast) == [fast] * 3
        # Machine names resolve too.
        assert resolve_system_assignment(tiny_specs, "faster-cpu") == \
            [fast] * 3

    def test_sequence_assigns_round_robin(self, tiny_specs):
        machines = resolve_system_assignment(
            tiny_specs, ["default", "slow-disk"])
        assert machines == [SystemParameters(),
                            SystemParameters.slow_disk(),
                            SystemParameters()]

    def test_map_assigns_by_name(self, tiny_specs):
        target = tiny_specs[1].name
        machines = resolve_system_assignment(
            tiny_specs, {target: "big-memory"})
        assert machines[1] == SystemParameters.big_memory()
        # Unmapped databases get the stock machine.
        assert machines[0] == machines[2] == SystemParameters()

    def test_bad_assignments_rejected(self, tiny_specs):
        with pytest.raises(ExperimentError, match="unknown database"):
            resolve_system_assignment(tiny_specs, {"no-such-db": "default"})
        with pytest.raises(ExperimentError, match="must not be empty"):
            resolve_system_assignment(tiny_specs, [])
        with pytest.raises(ExperimentError, match="SystemParameters"):
            resolve_system_assignment(tiny_specs, [3.14])

    def test_shards_carry_their_machine(self, tiny_specs):
        shards = make_corpus_shards(tiny_specs, 5, seed=1,
                                    system=["default", "faster-cpu"])
        assert [s.system for s in shards] == [SystemParameters(),
                                              SystemParameters.faster_cpu(),
                                              SystemParameters()]


class TestSystemAwareShardCache:
    def test_machine_is_part_of_the_cache_key(self, tiny_specs):
        stock, = make_corpus_shards(tiny_specs[:1], 5, seed=1)
        fast, = make_corpus_shards(tiny_specs[:1], 5, seed=1,
                                   system="faster-cpu")
        same, = make_corpus_shards(tiny_specs[:1], 5, seed=1)
        assert shard_key(stock) != shard_key(fast)
        assert shard_key(stock) == shard_key(same)

    def test_machines_cache_independent_records(self, tiny_specs, tmp_path):
        """The same shard recipe on two machines must produce (and
        cache) two distinct executions — runtimes differ, cache entries
        do not collide."""
        stock, = make_corpus_shards(tiny_specs[:1], 5, seed=1)
        fast, = make_corpus_shards(tiny_specs[:1], 5, seed=1,
                                   system="faster-cpu")
        store = ArtifactStore(tmp_path)
        for shard in (stock, fast):
            assert store.load_shard(shard) is None
            store.save_shard(execute_shard(shard))
        stock_records = store.load_shard(stock).records
        fast_records = store.load_shard(fast).records
        assert store.load_shard(stock).shard.system == SystemParameters()
        assert store.load_shard(fast).shard.system == \
            SystemParameters.faster_cpu()
        # Same queries, different machine: every runtime differs.
        assert all(
            a.runtime_seconds != b.runtime_seconds
            for a, b in zip(stock_records, fast_records)
        )


class TestCorpusSystems:
    def test_collect_records_each_databases_machine(self, tiny_specs):
        corpus = collect_training_corpus(
            tiny_specs, 5, seed=1, system=["default", "slow-disk"])
        names = [spec.name for spec in tiny_specs]
        assert corpus._system_for(names[0]) == SystemParameters()
        assert corpus._system_for(names[1]) == SystemParameters.slow_disk()
        assert corpus._system_for(names[2]) == SystemParameters()
        # Unknown databases default to the stock machine.
        assert corpus._system_for("never-collected") == SystemParameters()

    def test_store_round_trips_systems(self, tiny_specs, tmp_path,
                                       executed_names):
        store = ArtifactStore(tmp_path)
        corpus = collect_training_corpus(
            tiny_specs, 5, seed=1, system="faster-cpu", store=store)
        assert len(executed_names) == 3
        loaded = collect_training_corpus(
            tiny_specs, 5, seed=1, system="faster-cpu", store=store)
        assert len(executed_names) == 3   # all hits: nothing executed
        for name in corpus.records_by_database:
            assert loaded._system_for(name) == SystemParameters.faster_cpu()
