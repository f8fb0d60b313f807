"""The hardware axis of the training fleet: machine assignment,
system-aware shard caching, and corpus round-trips through the store."""

import pytest

from repro.db import generate_training_database_specs
from repro.errors import ExecutionError, ExperimentError
from repro.experiments.cache import ArtifactStore, shard_key
from repro.runtime import (
    SystemParameters,
    available_system_configs,
    get_system_config,
)
from repro.workload import collect_training_corpus
from repro.workload.backends import execute_shard, make_corpus_shards

pytestmark = pytest.mark.hardware


@pytest.fixture(scope="module")
def tiny_specs():
    return generate_training_database_specs(3, base_seed=23,
                                            min_rows=200, max_rows=900)


class TestFleetMachines:
    def test_default_is_the_stock_machine_everywhere(self, tiny_specs):
        shards = make_corpus_shards(tiny_specs, 5, seed=1)
        assert [s.system for s in shards] == [SystemParameters()] * 3

    def test_sequence_assigns_round_robin(self, tiny_specs):
        shards = make_corpus_shards(tiny_specs, 5, seed=1,
                                    system=("default", "slow-disk"))
        assert [s.system for s in shards] == [SystemParameters(),
                                              SystemParameters.slow_disk(),
                                              SystemParameters()]

    def test_bad_assignments_rejected(self, tiny_specs):
        with pytest.raises(ExperimentError, match="non-empty sequence"):
            make_corpus_shards(tiny_specs, 5, system=())
        # One name is not a fleet: its letters are not machines.
        with pytest.raises(ExperimentError, match="non-empty sequence"):
            make_corpus_shards(tiny_specs, 5, system="faster-cpu")
        with pytest.raises(ExecutionError, match="unknown system config"):
            make_corpus_shards(tiny_specs, 5, system=("no-such-machine",))

    def test_shards_carry_their_machine(self, tiny_specs):
        """More machines than databases: each shard takes the machine
        at its own index, and the surplus goes unused."""
        shards = make_corpus_shards(
            tiny_specs[:2], 5, seed=1,
            system=("faster-cpu", "big-memory", "slow-disk"))
        assert [s.system for s in shards] == [SystemParameters.faster_cpu(),
                                              SystemParameters.big_memory()]

    @pytest.mark.parametrize("name", available_system_configs())
    def test_every_named_machine_resolves(self, tiny_specs, name):
        """A fleet of one named machine puts that machine, as
        ``get_system_config`` resolves it, under every shard; only the
        stock machine keeps the stock shard keys."""
        shards = make_corpus_shards(tiny_specs, 5, seed=1, system=(name,))
        stock = make_corpus_shards(tiny_specs, 5, seed=1)
        assert [s.system for s in shards] == \
            [get_system_config(name)] * len(tiny_specs)
        same_keys = [shard_key(a) == shard_key(b)
                     for a, b in zip(shards, stock)]
        assert same_keys == [name == "default"] * len(tiny_specs)


class TestSystemAwareShardCache:
    def test_machine_is_part_of_the_cache_key(self, tiny_specs):
        stock, = make_corpus_shards(tiny_specs[:1], 5, seed=1)
        fast, = make_corpus_shards(tiny_specs[:1], 5, seed=1,
                                   system=("faster-cpu",))
        same, = make_corpus_shards(tiny_specs[:1], 5, seed=1)
        assert shard_key(stock) != shard_key(fast)
        assert shard_key(stock) == shard_key(same)

    def test_machines_cache_independent_records(self, tiny_specs, tmp_path):
        """The same shard recipe on two machines must produce (and
        cache) two distinct executions — runtimes differ, cache entries
        do not collide."""
        stock, = make_corpus_shards(tiny_specs[:1], 5, seed=1)
        fast, = make_corpus_shards(tiny_specs[:1], 5, seed=1,
                                   system=("faster-cpu",))
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
            tiny_specs, 5, seed=1, system=("default", "slow-disk"))
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
            tiny_specs, 5, seed=1, system=("faster-cpu",), store=store)
        assert len(executed_names) == 3
        loaded = collect_training_corpus(
            tiny_specs, 5, seed=1, system=("faster-cpu",), store=store)
        assert len(executed_names) == 3   # all hits: nothing executed
        for name in corpus.records_by_database:
            assert loaded._system_for(name) == SystemParameters.faster_cpu()
