"""Per-operator cardinality labels in the corpus schema (record v2)."""

import pickle

import numpy as np
import pytest

from repro.db import generate_training_database_specs
from repro.errors import FeaturizationError, WorkloadError
from repro.experiments.cache import ArtifactStore
from repro.featurize import CardinalitySource
from repro.plans.plan import walk_plan
from repro.workload import (
    RECORD_SCHEMA_VERSION,
    ExecutedQueryRecord,
    TrainingCorpus,
    WorkloadRunner,
    WorkloadSpec,
    collect_training_corpus,
    generate_workload,
)


@pytest.fixture(scope="module")
def executed(small_synthetic_db):
    runner = WorkloadRunner(small_synthetic_db, seed=9)
    return runner.run(generate_workload(
        small_synthetic_db, WorkloadSpec(num_queries=12, seed=9)))


class TestRecordSchema:
    def test_schema_version_bumped(self):
        assert RECORD_SCHEMA_VERSION >= 2

    def test_runner_records_operator_cardinalities(self, executed):
        for record in executed:
            cards = record.operator_cardinalities
            assert len(cards) == record.plan.num_nodes
            # Pre-order alignment with the executor's annotations.
            expected = [float(node.actual_rows)
                        for node in walk_plan(record.plan.root)]
            assert list(cards) == expected
            assert all(c >= 0 for c in cards)

    def test_labels_survive_reset_actuals(self, executed):
        record = pickle.loads(pickle.dumps(executed[0]))
        record.plan.reset_actuals()
        assert record.operator_cardinalities  # the schema field remains

    def test_pickle_round_trip_preserves_labels(self, executed):
        clone = pickle.loads(pickle.dumps(executed[0]))
        assert clone.operator_cardinalities == \
            executed[0].operator_cardinalities


class TestCorpusFeaturize:
    @pytest.fixture()
    def corpus(self, small_synthetic_db, executed):
        corpus = TrainingCorpus()
        corpus.records_by_database[small_synthetic_db.name] = list(executed)
        corpus.databases[small_synthetic_db.name] = small_synthetic_db
        return corpus

    def test_with_cardinalities_labels_every_graph(self, corpus, executed):
        graphs = corpus.featurize(CardinalitySource.ESTIMATED,
                                  with_cardinalities=True)
        assert len(graphs) == len(executed)
        for graph, record in zip(graphs, executed):
            cards = graph.target_log_cardinalities
            assert cards is not None
            np.testing.assert_allclose(
                cards, np.log1p(record.operator_cardinalities))
            assert graph.target_log_runtime is not None

    def test_without_cardinalities_unchanged(self, corpus):
        graphs = corpus.featurize(CardinalitySource.ESTIMATED)
        assert all(g.target_log_cardinalities is None for g in graphs)

    def test_legacy_records_rejected_with_hint(self, corpus,
                                              small_synthetic_db, executed):
        legacy = ExecutedQueryRecord(
            query=executed[0].query, plan=executed[0].plan,
            runtime_seconds=executed[0].runtime_seconds,
            database_name=executed[0].database_name,
        )
        corpus.records_by_database[small_synthetic_db.name] = [legacy]
        with pytest.raises(WorkloadError, match="re-collect"):
            corpus.featurize(CardinalitySource.ESTIMATED,
                             with_cardinalities=True)


class TestStoredCorpus:
    """The shard store is the corpus's only on-disk form: what it hands
    back on a second collection carries the labels it was given."""

    @pytest.fixture()
    def specs(self):
        return generate_training_database_specs(2, base_seed=5,
                                                min_rows=200, max_rows=900)

    def test_store_round_trips_labels(self, specs, executed_names, tmp_path):
        store = ArtifactStore(tmp_path)
        collected = collect_training_corpus(specs, 6, seed=5, store=store)
        assert len(executed_names) == 2
        loaded = collect_training_corpus(specs, 6, seed=5, store=store)
        assert len(executed_names) == 2   # all hits: nothing executed
        assert list(loaded.records_by_database) == \
            list(collected.records_by_database)
        assert [r.operator_cardinalities for r in loaded.all_records()] == \
            [r.operator_cardinalities for r in collected.all_records()]
        assert all(r.operator_cardinalities for r in loaded.all_records())

    def test_store_format_rejects_old_layout(self, specs, executed_names,
                                             tmp_path, monkeypatch):
        """Shards stored under another ``CACHE_FORMAT_VERSION`` are
        never matched: they are re-collected, not silently loaded."""
        import repro.experiments.cache as cache_module
        store = ArtifactStore(tmp_path)
        collect_training_corpus(specs, 6, seed=5, store=store)
        assert len(executed_names) == 2
        monkeypatch.setattr(cache_module, "CACHE_FORMAT_VERSION", "v4")
        collect_training_corpus(specs, 6, seed=5, store=store)
        assert len(executed_names) == 4


class TestFeaturizerLabels:
    def test_length_mismatch_rejected(self, small_synthetic_db, executed):
        from repro.featurize import ZeroShotFeaturizer
        featurizer = ZeroShotFeaturizer(CardinalitySource.ESTIMATED)
        with pytest.raises(FeaturizationError, match="cardinality labels"):
            featurizer.featurize(executed[0].plan, small_synthetic_db,
                                 operator_cardinalities=[1.0])

    def test_negative_labels_rejected(self, small_synthetic_db, executed):
        from repro.featurize import ZeroShotFeaturizer
        featurizer = ZeroShotFeaturizer(CardinalitySource.ESTIMATED)
        cards = [-1.0] * executed[0].plan.num_nodes
        with pytest.raises(FeaturizationError, match="non-negative"):
            featurizer.featurize(executed[0].plan, small_synthetic_db,
                                 operator_cardinalities=cards)
