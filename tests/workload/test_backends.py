"""Sharded corpus collection: ``run_shards``, shard seeds, pickling.

Fanning shards out to a process pool only works if (a) every shard is a
self-contained picklable unit, (b) executed records survive the pickle
round-trip losslessly, and (c) per-shard seeds make execution order
irrelevant.  Each property gets its own regression here; the capstone
asserts in-process and pooled corpora are record-identical, and equal
to the labels pinned before the collectors were merged.
"""

import hashlib
import pickle

import pytest

from repro.db import generate_training_database_specs
from repro.errors import ExperimentError, WorkloadError
from repro.workload import (
    WorkloadRunner,
    WorkloadSpec,
    collect_training_corpus,
    make_benchmark_workload,
)
from repro.workload import backends
from repro.workload.backends import (
    execute_shard,
    make_corpus_shards,
    resolve_workers,
    run_shards,
    shard_seeds,
)


@pytest.fixture(scope="module")
def tiny_specs():
    return generate_training_database_specs(3, base_seed=23,
                                            min_rows=200, max_rows=900)


def assert_records_identical(a, b):
    """Bit-level equality of two executed-record lists."""
    assert len(a) == len(b)
    for left, right in zip(a, b):
        assert str(left.query) == str(right.query)
        assert left.database_name == right.database_name
        assert left.runtime_seconds == right.runtime_seconds
        assert left.memory_peak_bytes == right.memory_peak_bytes
        assert left.io_pages == right.io_pages
        left_nodes = left.plan.nodes()
        right_nodes = right.plan.nodes()
        assert len(left_nodes) == len(right_nodes)
        for node_a, node_b in zip(left_nodes, right_nodes):
            assert type(node_a) is type(node_b)
            assert node_a.actual_rows == node_b.actual_rows
            assert node_a.est_rows == node_b.est_rows
            assert node_a.est_cost == node_b.est_cost


class TestRecordPickling:
    """``ExecutedQueryRecord`` must round-trip losslessly — the
    process pool ships every record through pickle."""

    def test_roundtrip_is_lossless(self, tiny_imdb):
        queries = make_benchmark_workload(tiny_imdb, "job-light", 6, seed=3)
        records = WorkloadRunner(tiny_imdb, seed=5).run(queries)
        restored = pickle.loads(pickle.dumps(records))
        assert_records_identical(records, restored)
        for record in restored:
            record.plan.require_executed()
            assert record.optimizer_cost > 0

    def test_shard_and_execution_roundtrip(self, tiny_specs):
        shards = make_corpus_shards(tiny_specs, 5, seed=23)
        restored = pickle.loads(pickle.dumps(shards))
        assert restored == shards          # frozen dataclasses: full equality
        execution = execute_shard(shards[0])
        again = pickle.loads(pickle.dumps(execution))
        assert again.database.name == execution.database.name
        assert again.shard == execution.shard
        assert_records_identical(execution.records, again.records)


class TestShardSeeds:
    def test_deterministic_and_distinct(self):
        assert shard_seeds(7, 0) == shard_seeds(7, 0)
        assert shard_seeds(7, 0) != shard_seeds(7, 1)
        assert shard_seeds(7, 0) != shard_seeds(8, 0)

    def test_independent_of_fleet_size(self, tiny_specs):
        """Shard i's task is identical whether the fleet has 2 or 3
        databases — the foundation of incremental shard reuse."""
        small = make_corpus_shards(tiny_specs[:2], 5, seed=23)
        large = make_corpus_shards(tiny_specs, 5, seed=23)
        assert large[:2] == small

    def test_negative_seed_rejected(self):
        with pytest.raises(ExperimentError):
            shard_seeds(-1, 0)

    def test_each_shard_gets_its_own_workload_seed(self, tiny_specs):
        shards = make_corpus_shards(tiny_specs, 5, seed=23)
        for index, shard in enumerate(shards):
            assert shard.workload_spec == WorkloadSpec(
                num_queries=5, seed=shard_seeds(23, index)[1])
        assert len({s.workload_spec.seed for s in shards}) == len(shards)

    def test_workload_spec_reaches_the_generator(self, tiny_specs,
                                                 monkeypatch):
        """``generate_workload`` sees each database once, with the
        shard's own spec: the query count asked for and the database's
        own workload seed."""
        received = []
        generate = backends.generate_workload

        def spy(database, spec):
            received.append(spec)
            return generate(database, spec)

        monkeypatch.setattr(backends, "generate_workload", spy)
        collect_training_corpus(tiny_specs, 4, seed=23, workers=1)
        assert received == [
            WorkloadSpec(num_queries=4, seed=shard_seeds(23, index)[1])
            for index in range(len(tiny_specs))]


#: SHA-256 over ``(str(query), runtime_seconds, operator_cardinalities)``
#: of every record of the corpus below, generated at PR 21's tree by the
#: sharded collector it still kept beside the eager one.  Merging the
#: two under one name must not move a label.
PINNED_LABELS = \
    "2cd4b236e9be81586ff68a839eec306de5b6823d46e18e1779bd6b17adb7be50"


def label_digest(corpus) -> str:
    digest = hashlib.sha256()
    for record in corpus.all_records():
        digest.update(repr((
            str(record.query), float(record.runtime_seconds),
            tuple(float(c) for c in record.operator_cardinalities),
        )).encode())
    return digest.hexdigest()


class TestRunShards:
    def test_serial_and_parallel_are_record_identical(self, tiny_specs):
        """The acceptance property: the corpus does not depend on how
        many workers collected it."""
        kwargs = dict(seed=23, random_indexes_per_database=1)
        serial = collect_training_corpus(tiny_specs, 8, workers=1, **kwargs)
        parallel = collect_training_corpus(tiny_specs, 8, workers=2, **kwargs)
        assert list(serial.records_by_database) == \
            list(parallel.records_by_database)
        for name in serial.records_by_database:
            assert_records_identical(serial.records_by_database[name],
                                     parallel.records_by_database[name])
            assert sorted(serial.databases[name].indexes) == \
                sorted(parallel.databases[name].indexes)
        assert serial.num_queries == 24
        assert label_digest(serial) == PINNED_LABELS
        assert label_digest(parallel) == PINNED_LABELS

    def test_empty_shard_list(self):
        assert run_shards([]) == []
        assert run_shards([], workers=2) == []

    def test_invalid_worker_count(self):
        with pytest.raises(ExperimentError):
            run_shards([], workers=0)
        with pytest.raises(ExperimentError):
            resolve_workers(-2)

    def test_invalid_worker_count_fails_before_any_shard(self, tiny_specs,
                                                         monkeypatch):
        """``workers <= 0``, as an argument or from the environment, is
        rejected before a shard is looked up in the store or run."""
        def poison(*args, **kwargs):
            raise AssertionError("a shard was touched")

        class PoisonedStore:
            load_shard = save_shard = poison

        monkeypatch.setattr(backends, "execute_shard", poison)
        with pytest.raises(ExperimentError):
            collect_training_corpus(tiny_specs, 5, workers=0,
                                    store=PoisonedStore())
        monkeypatch.setenv("REPRO_WORKERS", "0")
        with pytest.raises(ExperimentError):
            collect_training_corpus(tiny_specs, 5, store=PoisonedStore())

    def test_spec_validation(self, tiny_specs):
        with pytest.raises(WorkloadError):
            collect_training_corpus([], 5)
        with pytest.raises(WorkloadError):
            collect_training_corpus(tiny_specs, 0)


class TestResolveWorkers:
    def test_default_is_in_process(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers() == 1

    def test_env_selects_pool(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert resolve_workers() == 3

    def test_env_one_is_in_process(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "1")
        assert resolve_workers() == 1

    def test_explicit_argument_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert resolve_workers(1) == 1
        assert resolve_workers(4) == 4

    def test_env_reaches_the_collector(self, tiny_specs, monkeypatch):
        """``REPRO_WORKERS`` means the same to a direct collector call
        as to ``build_context``."""
        seen = []
        monkeypatch.setattr(
            "repro.workload.corpus.run_shards",
            lambda shards, workers=None: seen.append(workers)
            or run_shards(shards, 1))
        monkeypatch.setenv("REPRO_WORKERS", "3")
        collect_training_corpus(tiny_specs[:1], 3, seed=23)
        collect_training_corpus(tiny_specs[:1], 3, seed=23, workers=2)
        assert seen == [3, 2]

    def test_env_validation(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "zero")
        with pytest.raises(ExperimentError):
            resolve_workers()
        monkeypatch.setenv("REPRO_WORKERS", "0")
        with pytest.raises(ExperimentError):
            resolve_workers()
