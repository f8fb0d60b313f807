"""The persistent experiment artifact store.

A warm :func:`~repro.experiments.setup.build_context` call must deserialize
the corpus shards, trained models and executed workloads — zero query
execution, zero training — and reproduce the cold context bit for bit,
from a store that holds each training database exactly once.
"""

import copyreg
import dataclasses
import io
import pickle
import shutil

import numpy as np
import pytest

from repro.db import generate_training_database_specs
from repro.db.schema import Table
from repro.experiments import setup as experiment_setup
from repro.experiments.cache import (
    ArtifactStore,
    cache_enabled,
    context_key,
    main,
    shard_key,
)
from repro.experiments.fewshot_exp import run_fewshot
from repro.experiments.resources import run_resources
from repro.experiments.setup import ExperimentScale, build_context
from repro.featurize import CardinalitySource, ZeroShotFeaturizer
from repro.models import TrainerConfig, ZeroShotConfig
from repro.workload import (
    TrainingCorpus,
    WorkloadRunner,
    backends,
    collect_training_corpus,
)
from repro.workload.backends import execute_shard, make_corpus_shards

pytestmark = pytest.mark.artifact_cache


def tiny_scale() -> ExperimentScale:
    """Smaller than ``quick()``: the round-trip runs twice per test."""
    return ExperimentScale(
        num_training_databases=2,
        queries_per_database=25,
        random_indexes_per_database=1,
        training_db_min_rows=300,
        training_db_max_rows=2_000,
        imdb_scale=0.03,
        evaluation_queries=6,
        training_budgets=(10,),
        fewshot_budgets=(5,),
        zero_shot_config=ZeroShotConfig(hidden_dim=16),
        zero_shot_trainer=TrainerConfig(epochs=8, batch_size=16,
                                        early_stopping_patience=8),
        baseline_trainer=TrainerConfig(epochs=4, batch_size=16,
                                       early_stopping_patience=4),
    )


@pytest.fixture(scope="module", autouse=True)
def _store_switched_on():
    """The store is on for these tests whatever the ambient
    ``REPRO_CACHE``; a test that bypasses it sets ``REPRO_CACHE=0``
    itself."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_CACHE", "1")
        yield


@pytest.fixture(scope="module")
def warm_store(tmp_path_factory):
    """One cold build shared by the round-trip assertions."""
    store = ArtifactStore(tmp_path_factory.mktemp("store"))
    context = build_context(tiny_scale(), store=store)
    return store, context


def complete(entry) -> bool:
    """Whether a store entry carries its ``COMPLETE`` marker."""
    return (entry / "COMPLETE").is_file()


def assert_same_predictions(cold, warm):
    """Both stored models answer the evaluation plans bit for bit."""
    featurizer = ZeroShotFeaturizer(CardinalitySource.ACTUAL)
    cold_graphs = [featurizer.featurize(r.plan, cold.imdb)
                   for r in cold.evaluation_records["scale"]]
    warm_graphs = [featurizer.featurize(r.plan, warm.imdb)
                   for r in warm.evaluation_records["scale"]]
    for source in (CardinalitySource.ACTUAL, CardinalitySource.ESTIMATED):
        np.testing.assert_array_equal(
            cold.zero_shot_models[source].predict_log_runtime(cold_graphs),
            warm.zero_shot_models[source].predict_log_runtime(warm_graphs),
        )


class TestRoundTrip:
    def test_warm_call_skips_all_one_time_effort(self, warm_store,
                                                 monkeypatch):
        store, cold = warm_store

        def poison(*args, **kwargs):
            raise AssertionError("one-time effort repeated on a warm cache")

        monkeypatch.setattr(experiment_setup, "train_zero_shot_models", poison)
        monkeypatch.setattr(backends, "execute_shard", poison)
        monkeypatch.setattr(WorkloadRunner, "run", poison)
        context = build_context(tiny_scale(), store=store)
        assert context.corpus.num_queries == 2 * 25
        assert_same_predictions(cold, context)

    def test_roundtrip_reproduces_predictions(self, warm_store):
        store, cold = warm_store
        warm = build_context(tiny_scale(), store=store)
        assert_same_predictions(cold, warm)

    def test_roundtrip_preserves_context_shape(self, warm_store):
        store, cold = warm_store
        warm = build_context(tiny_scale(), store=store)
        assert list(warm.corpus.databases) == list(cold.corpus.databases)
        assert set(warm.evaluation_records) == set(cold.evaluation_records)
        for benchmark in cold.evaluation_records:
            np.testing.assert_array_equal(
                warm.evaluation_truths(benchmark),
                cold.evaluation_truths(benchmark),
            )
        for source, model in warm.zero_shot_models.items():
            assert model.history is not None
            assert model.history.train_losses == \
                cold.zero_shot_models[source].history.train_losses

    def test_repro_cache_0_bypasses_a_given_store(self, warm_store,
                                                  monkeypatch):
        store, _ = warm_store
        sentinel = {"loaded": False}

        def spy(*args, **kwargs):
            sentinel["loaded"] = True
            return None

        monkeypatch.setattr(ArtifactStore, "load_context", spy)
        monkeypatch.setattr(ArtifactStore, "load_shard", spy)
        monkeypatch.setenv("REPRO_CACHE", "0")
        build_context(tiny_scale(), store=store)
        assert not sentinel["loaded"]

    def test_invalid_workers_rejected_even_on_warm_cache(self, warm_store,
                                                         monkeypatch):
        """A bad worker count must fail identically warm or cold: before
        any shard is loaded or run."""
        from repro.errors import ExperimentError
        store, _ = warm_store

        def poison(*args, **kwargs):
            raise AssertionError("a shard was touched")

        monkeypatch.setattr(ArtifactStore, "load_shard", poison)
        monkeypatch.setattr(backends, "execute_shard", poison)
        for workers in ("0", "-1"):
            monkeypatch.setenv("REPRO_WORKERS", workers)
            for cached in ("1", "0"):
                monkeypatch.setenv("REPRO_CACHE", cached)
                with pytest.raises(ExperimentError):
                    build_context(tiny_scale(), store=store)

    def test_repro_cache_env_disables(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "0")
        assert not cache_enabled()
        monkeypatch.setenv("REPRO_CACHE", "1")
        assert cache_enabled()


class TestKeying:
    def test_key_is_deterministic(self):
        assert context_key(tiny_scale()) == context_key(tiny_scale())

    def test_key_depends_on_scale(self):
        base = tiny_scale()
        reseeded = dataclasses.replace(base, seed=base.seed + 1)
        assert context_key(base) != context_key(reseeded)

    def test_incomplete_entry_is_a_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        entry = store._entry_dir(tiny_scale())
        entry.mkdir(parents=True)          # no COMPLETE marker
        (entry / "context.pkl").write_bytes(b"garbage")
        assert store.load_context(tiny_scale(), TrainingCorpus()) is None

    def test_incomplete_entry_is_replaced_on_save(self, warm_store,
                                                  tmp_path):
        """A crashed writer's leftover must not poison the key forever."""
        fresh = ArtifactStore(tmp_path)
        scale = tiny_scale()
        leftover = fresh._entry_dir(scale)
        leftover.mkdir(parents=True)       # incomplete: no COMPLETE marker
        (leftover / "context.pkl").write_bytes(b"garbage")

        _, context = warm_store
        assert fresh.save_context(context) == leftover
        assert complete(leftover)
        reloaded = fresh.load_context(scale, context.corpus)
        assert reloaded is not None
        assert reloaded.corpus is context.corpus
        assert_same_predictions(context, reloaded)


class TestOneCopyOnDisk:
    """The ``ShardExecution`` pickle is the only persisted form of a
    training database; a context entry holds only what shards do not."""

    def test_store_holds_each_database_once(self, warm_store):
        store, _ = warm_store
        files = [path.relative_to(store.root) for path
                 in store.root.rglob("*") if path.is_file()]
        assert len(store.entries()) == 1
        assert sorted(info["database"] for info in store.shard_entries()) \
            == ["train_db_0", "train_db_1"]
        assert sum(path.name == "payload.pkl" for path in files) == 2
        assert sum(path.name == "context.pkl" for path in files) == 1
        assert not [path for path in store.root.rglob("corpus")]
        # Every pickle in the store is one of those three.
        assert sum(path.suffix == ".pkl" for path in files) == 3
        for entry in store.root.glob("*/ctx-*"):
            assert sorted(path.name for path in entry.iterdir()) == \
                ["COMPLETE", "context.pkl", "models", "scale.json"]

    def test_vanished_shard_is_re_executed_alone(self, warm_store, tmp_path,
                                                 executed_names,
                                                 monkeypatch):
        """A shard is a pure function of its recipe: delete one under a
        ``COMPLETE`` context and the next call executes exactly that
        shard, record for record, and the stored models still fit."""
        source, cold = warm_store
        store = ArtifactStore(tmp_path / "copy")
        shutil.copytree(source.root, store.root)
        (victim,) = [info for info in store.shard_entries()
                     if info["database"] == "train_db_1"]
        (victim_dir,) = store.root.glob(f"*/shards/{victim['key']}")
        shutil.rmtree(victim_dir)
        assert len(store.shard_entries()) == 1

        def poison(*args, **kwargs):
            raise AssertionError("a stored context was rebuilt")

        monkeypatch.setattr(experiment_setup, "train_zero_shot_models", poison)
        healed = build_context(tiny_scale(), store=store)
        assert executed_names == ["train_db_1"]
        assert len(store.shard_entries()) == 2
        for name, records in cold.corpus.records_by_database.items():
            assert [(r.runtime_seconds, r.operator_cardinalities)
                    for r in healed.corpus.records_by_database[name]] == \
                [(r.runtime_seconds, r.operator_cardinalities)
                 for r in records]
        assert_same_predictions(cold, healed)


class TestOneContextPerScale:
    def test_pool_and_no_pool_drivers_share_one_context(self, tmp_path,
                                                        monkeypatch):
        """A driver that reads no IMDB pool, then one that does, each run
        standalone against one store: one context entry, one training of
        the zero-shot models.  (A context without its pool once had a key
        of its own, so the second driver trained them again.)"""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        trainings = []
        train = experiment_setup.train_zero_shot_models

        def counting(*args, **kwargs):
            trainings.append(args)
            return train(*args, **kwargs)

        monkeypatch.setattr(experiment_setup, "train_zero_shot_models",
                            counting)
        run_resources(tiny_scale())
        run_fewshot(tiny_scale())
        assert len(trainings) == 1
        assert [info["key"] for info in ArtifactStore(tmp_path).entries()] \
            == [context_key(tiny_scale())]


def _truncate(path, keep=0.6):
    """Cut a file short, as a full disk or an interrupted copy does."""
    data = path.read_bytes()
    assert len(data) > 16
    path.write_bytes(data[:int(len(data) * keep)])


class TestTruncatedEntries:
    """A file cut short under a ``COMPLETE`` marker (a full disk, a copy
    cut short) used to raise ``EOFError`` / ``UnpicklingError`` —
    and, for a model file, ``BadZipFile`` / ``JSONDecodeError`` — out of
    ``build_context``; it is a miss that re-executes, and the
    re-executed entry replaces the broken one."""

    @pytest.mark.parametrize("victim", ["context.pkl",
                                        "models/estimated/weights.npz",
                                        "models/actual/model.json"])
    def test_truncated_context_is_a_miss_and_heals(self, warm_store,
                                                   tmp_path, victim):
        _, context = warm_store
        store = ArtifactStore(tmp_path)
        scale = tiny_scale()
        entry = store.save_context(context)
        assert store.load_context(scale, context.corpus) is not None
        _truncate(entry / victim)
        assert complete(entry)

        assert store.load_context(scale, context.corpus) is None
        # Demoted, so the rebuilt context is published over it.
        assert not complete(entry)
        store.save_context(context)
        reloaded = store.load_context(scale, context.corpus)
        assert reloaded is not None
        assert_same_predictions(context, reloaded)

    @pytest.mark.parametrize("keep", [0.0, 0.6])
    def test_truncated_shard_is_a_miss_and_heals(self, tmp_path, keep):
        specs = generate_training_database_specs(
            1, base_seed=43, min_rows=200, max_rows=600)
        (shard,) = make_corpus_shards(specs, 6, seed=43,
                                      random_indexes_per_database=0)
        executed = execute_shard(shard)
        store = ArtifactStore(tmp_path)
        entry = store.save_shard(executed)
        _truncate(entry / "payload.pkl", keep)
        assert complete(entry)

        assert store.load_shard(shard) is None
        assert not complete(entry)
        store.save_shard(executed)
        assert [r.runtime_seconds for r in store.load_shard(shard).records] \
            == [r.runtime_seconds for r in executed.records]


class TestShardStore:
    """Per-shard artifacts: the incremental half of the store."""

    @pytest.fixture(scope="class")
    def tiny_shards(self):
        specs = generate_training_database_specs(
            2, base_seed=41, min_rows=200, max_rows=900)
        return make_corpus_shards(specs, 8, seed=41,
                                  random_indexes_per_database=1)

    @pytest.fixture(scope="class")
    def executed(self, tiny_shards):
        return execute_shard(tiny_shards[0])

    def test_roundtrip(self, tmp_path, tiny_shards, executed):
        store = ArtifactStore(tmp_path)
        assert store.load_shard(tiny_shards[0]) is None
        assert complete(store.save_shard(executed))
        loaded = store.load_shard(tiny_shards[0])
        assert loaded.database.name == executed.database.name
        assert [r.runtime_seconds for r in loaded.records] == \
            [r.runtime_seconds for r in executed.records]
        # The other shard's key stays cold.
        assert store.load_shard(tiny_shards[1]) is None

    def test_cached_table_width_changes_no_stored_byte(self, tmp_path,
                                                       tiny_shards, executed):
        """``Table.tuple_width_bytes`` is cached on the instance once
        read.  A shard still pickles each table as its fields alone, as
        it did before the cache, so an entry written either way is the
        same file and loads the same records."""
        def fields_only(table):
            # How a Table pickled before: its instance dict held the
            # fields and nothing else.
            return copyreg.__newobj__, (Table,), {
                field.name: getattr(table, field.name)
                for field in dataclasses.fields(Table)}

        tables = executed.database.schema.tables.values()
        widths = [table.tuple_width_bytes for table in tables]
        buffer = io.BytesIO()
        pickler = pickle.Pickler(buffer, protocol=pickle.HIGHEST_PROTOCOL)
        pickler.dispatch_table = {**copyreg.dispatch_table,
                                  Table: fields_only}
        pickler.dump(executed)

        store = ArtifactStore(tmp_path)
        entry = store.save_shard(executed)
        assert (entry / "payload.pkl").read_bytes() == buffer.getvalue()
        loaded = store.load_shard(tiny_shards[0])
        assert pickle.dumps(loaded.records) == pickle.dumps(executed.records)
        loaded_tables = loaded.database.schema.tables.values()
        assert not any("tuple_width_bytes" in vars(table)
                       for table in loaded_tables)
        assert [table.tuple_width_bytes for table in loaded_tables] == widths

    def test_key_covers_the_recipe(self, tiny_shards):
        base = tiny_shards[0]
        assert shard_key(base) == shard_key(base)
        assert shard_key(base) != shard_key(tiny_shards[1])
        reseeded = dataclasses.replace(base, runner_seed=base.runner_seed + 1)
        assert shard_key(base) != shard_key(reseeded)
        fewer = dataclasses.replace(
            base,
            workload_spec=dataclasses.replace(base.workload_spec,
                                              num_queries=3))
        assert shard_key(base) != shard_key(fewer)

    def test_key_covers_the_record_schema(self, tiny_shards, monkeypatch):
        """A record-schema bump (e.g. the per-operator cardinality
        labels) must re-key every shard, so artifacts pickled from the
        old schema are re-executed instead of silently reused."""
        import repro.experiments.cache as cache_module
        base = tiny_shards[0]
        current = shard_key(base)
        monkeypatch.setattr(cache_module, "RECORD_SCHEMA_VERSION", 1)
        assert shard_key(base) != current

    def test_cache_format_bumped_for_record_schema_v2(self):
        """v2-era entries (records without cardinality labels) must
        never be matched by the current store layout."""
        from repro.experiments.cache import CACHE_FORMAT_VERSION
        assert CACHE_FORMAT_VERSION not in ("v1", "v2")

    def test_racing_writers_do_not_corrupt(self, tmp_path, tiny_shards,
                                           executed):
        """Two writers on the same shard key: the loser's staging copy
        is discarded, the winner's complete entry survives untouched."""
        store = ArtifactStore(tmp_path)
        shard = tiny_shards[0]

        # Writer A publishes first.
        entry = store.save_shard(executed)
        marker = (entry / "COMPLETE").stat().st_mtime_ns

        # Writer B finished its staging copy while A held the entry:
        # its publish must notice A's COMPLETE marker and stand down.
        second = store.save_shard(executed)
        assert second == entry
        assert (entry / "COMPLETE").stat().st_mtime_ns == marker
        assert not list(entry.parent.glob("*.tmp-*")), \
            "staging leftovers after a lost race"
        loaded = store.load_shard(shard)
        assert [r.runtime_seconds for r in loaded.records] == \
            [r.runtime_seconds for r in executed.records]

    def test_incomplete_shard_is_a_miss_and_replaced(self, tmp_path,
                                                     tiny_shards, executed):
        """A crashed writer's markerless leftover must not poison the key."""
        store = ArtifactStore(tmp_path)
        shard = tiny_shards[0]
        leftover = store._shard_dir(shard)
        leftover.mkdir(parents=True)       # no COMPLETE marker
        (leftover / "payload.pkl").write_bytes(b"garbage")
        assert store.load_shard(shard) is None
        assert store.save_shard(executed) == leftover
        assert complete(leftover)
        assert store.load_shard(shard).database.name == executed.database.name

    def test_growing_fleet_reuses_shards(self, tmp_path, executed_names):
        """8 -> 12 databases must execute exactly the 4 new shards."""
        store = ArtifactStore(tmp_path)
        specs3 = generate_training_database_specs(
            3, base_seed=13, min_rows=200, max_rows=900)
        small = collect_training_corpus(specs3[:2], 6, seed=13, store=store)
        assert executed_names == ["train_db_0", "train_db_1"]

        grown = collect_training_corpus(specs3, 6, seed=13, store=store)
        assert executed_names == ["train_db_0", "train_db_1", "train_db_2"]
        assert grown.num_databases == 3
        for name in small.records_by_database:
            assert [r.runtime_seconds
                    for r in grown.records_by_database[name]] == \
                [r.runtime_seconds for r in small.records_by_database[name]]

    def test_clear_removes_shards(self, tmp_path, executed):
        store = ArtifactStore(tmp_path)
        store.save_shard(executed)
        assert len(store.shard_entries()) == 1
        assert store.clear() == 1
        assert store.shard_entries() == []
        assert store.load_shard(executed.shard) is None


class TestCLI:
    def test_stat_and_clear(self, warm_store, capsys):
        store, _ = warm_store
        assert main(["--stat", "--dir", str(store.root)]) == 0
        out = capsys.readouterr().out
        assert "ctx-" in out and "fleet=2x25q" in out
        # The cold build went through sharded collection, so the store
        # holds one shard per training database too.
        assert "shard-" in out and "db=train_db_0" in out
        assert "2 shard entries" in out

        scratch = ArtifactStore(store.root)   # same root, fresh handle
        assert len(scratch.entries()) == 1
        assert len(scratch.shard_entries()) == 2

    def test_clear_empties_store(self, tmp_path, capsys):
        # Clearing only touches directories; fabricated entries suffice.
        store = ArtifactStore(tmp_path)
        for name in ("ctx-aaaa", "ctx-bbbb"):
            entry = store._entry_dir(tiny_scale()).with_name(name)
            entry.mkdir(parents=True)
            (entry / "COMPLETE").write_text("ok\n")
        assert len(store.entries()) == 2
        assert main(["--clear", "--dir", str(tmp_path)]) == 0
        assert "cleared 2" in capsys.readouterr().out
        assert store.entries() == []
