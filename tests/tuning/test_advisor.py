"""Zero-shot what-if estimation and the greedy index advisor."""

import numpy as np
import pytest

from repro.db import SyntheticDatabaseSpec, make_imdb_database
from repro.errors import ModelError, SchemaError
from repro.featurize import CardinalitySource
from repro.models import TrainerConfig, ZeroShotConfig, ZeroShotEstimator
from repro.sql import parse_query
from repro.tuning import IndexAdvisor
from repro.tuning.advisor import IndexSpec, hypothetical_indexes
from repro.workload import collect_training_corpus

from tests.models.conftest import build_labelled_graphs


@pytest.fixture(scope="module")
def whatif_estimator():
    """A zero-shot estimator trained on synthetic DBs *with* random indexes,
    so it has seen index scans (the §4.1 training recipe)."""
    specs = [
        SyntheticDatabaseSpec(
            name=f"w{i}", seed=300 + i, num_tables=3 + (i % 2),
            min_rows=500, max_rows=4_000,
        )
        for i in range(3)
    ]
    corpus = collect_training_corpus(specs, 60, seed=3,
                                     random_indexes_per_database=2)
    graphs = corpus.featurize(CardinalitySource.ESTIMATED)
    estimator = ZeroShotEstimator(ZeroShotConfig(hidden_dim=32, seed=0))
    return estimator.fit_graphs(graphs, TrainerConfig(
        epochs=40, batch_size=32, early_stopping_patience=40))


@pytest.fixture(scope="module")
def target_db():
    return make_imdb_database(scale=0.04, seed=21)


WORKLOAD = [
    "SELECT COUNT(*) FROM title t WHERE t.votes > 1000000",
    "SELECT COUNT(*) FROM title t WHERE t.votes > 500000 "
    "AND t.production_year > 2015",
    "SELECT MIN(t.production_year) FROM title t, movie_companies mc "
    "WHERE t.id = mc.movie_id AND mc.company_type_id = 3",
]


class TestHypotheticalIndexes:
    def test_indexed_column_is_skipped(self, target_db):
        before = dict(target_db.indexes)
        with hypothetical_indexes(target_db, [IndexSpec("title", "id")]):
            assert target_db.indexes == before
        assert target_db.indexes == before

    def test_repeated_spec_registers_once(self, target_db):
        before = set(target_db.indexes)
        votes = IndexSpec("title", "votes")
        with hypothetical_indexes(target_db, [votes, votes]):
            added = set(target_db.indexes) - before
            assert added == {votes.default_name}
            assert target_db.indexes[votes.default_name].hypothetical
        assert set(target_db.indexes) == before

    def test_nested_registration_keeps_the_outer_index(self, target_db):
        before = set(target_db.indexes)
        votes = IndexSpec("title", "votes")
        year = IndexSpec("title", "production_year")
        with hypothetical_indexes(target_db, [votes]):
            with hypothetical_indexes(target_db, [votes, year]):
                assert set(target_db.indexes) - before == {
                    votes.default_name, year.default_name}
            assert set(target_db.indexes) - before == {votes.default_name}
        assert set(target_db.indexes) == before


class TestWhatIfEstimator:
    def test_estimates_positive(self, target_db, whatif_estimator):
        advisor = IndexAdvisor(target_db, whatif_estimator)
        for text in WORKLOAD:
            runtime = advisor._estimate_workload([parse_query(text)], [])
            assert runtime > 0

    def test_whatif_differs_from_baseline(self, target_db, whatif_estimator):
        advisor = IndexAdvisor(target_db, whatif_estimator)
        query = parse_query(WORKLOAD[0])
        baseline = advisor._estimate_workload([query], [])
        with_index = advisor._estimate_workload(
            [query], [IndexSpec("title", "votes")]
        )
        assert with_index != baseline

    def test_no_leftover_hypothetical_indexes(self, target_db,
                                              whatif_estimator):
        advisor = IndexAdvisor(target_db, whatif_estimator)
        before = set(target_db.indexes)
        advisor._estimate_workload([parse_query(WORKLOAD[0])],
                                   [IndexSpec("title", "votes")])
        assert set(target_db.indexes) == before

    def test_failed_pricing_leaves_no_hypothetical_index(
            self, target_db, whatif_estimator, monkeypatch):
        advisor = IndexAdvisor(target_db, whatif_estimator)
        before = set(target_db.indexes)

        def fail(plans, database):
            assert "whatif_title_votes" in database.indexes
            raise ModelError("pricing failed")

        monkeypatch.setattr(whatif_estimator, "predict_runtime", fail)
        with pytest.raises(ModelError, match="pricing failed"):
            advisor._estimate_workload([parse_query(WORKLOAD[0])],
                                       [IndexSpec("title", "votes")])
        assert set(target_db.indexes) == before

    def test_unknown_column_raises_and_leaves_no_index(self, target_db):
        before = dict(target_db.indexes)
        with pytest.raises(SchemaError):
            with hypothetical_indexes(target_db, [
                    IndexSpec("title", "votes"),
                    IndexSpec("title", "no_such_column")]):
                pass
        assert target_db.indexes == before

    def test_estimate_reads_the_registered_indexes(self, target_db,
                                                   whatif_estimator):
        """An index registered around the estimate prices exactly as one
        the estimate registers itself."""
        advisor = IndexAdvisor(target_db, whatif_estimator)
        queries = [parse_query(t) for t in WORKLOAD]
        votes = [IndexSpec("title", "votes")]
        with hypothetical_indexes(target_db, votes):
            outer = advisor._estimate_workload(queries, [])
        assert outer == advisor._estimate_workload(queries, votes)

    def test_unfitted_model_rejected(self, target_db):
        with pytest.raises(ModelError):
            IndexAdvisor(target_db, ZeroShotEstimator())

    def test_empty_workload_rejected(self, target_db, whatif_estimator):
        advisor = IndexAdvisor(target_db, whatif_estimator)
        with pytest.raises(ModelError):
            advisor._estimate_workload([], [])


class TestWhatIfThroughUnifiedAPI:
    """The what-if estimate speaks the CostEstimator contract:
    batched workloads."""

    def test_workload_estimate_is_batched_sum(self, target_db,
                                              whatif_estimator):
        """One batched call equals the sum of per-query estimates —
        bit-identical, thanks to batch-size-invariant inference."""
        advisor = IndexAdvisor(target_db, whatif_estimator)
        queries = [parse_query(t) for t in WORKLOAD]
        batched = advisor._estimate_workload(queries, [])
        summed = float(np.sum([advisor._estimate_workload([q], [])
                               for q in queries]))
        assert batched == summed


class TestAdvisor:
    def test_candidates_cover_predicates_and_joins(self, target_db,
                                                   whatif_estimator):
        advisor = IndexAdvisor(target_db, whatif_estimator)
        queries = [parse_query(t) for t in WORKLOAD]
        candidates = advisor._candidate_indexes(queries)
        keys = {(c.table_name, c.column_name) for c in candidates}
        assert ("title", "votes") in keys
        assert ("title", "production_year") in keys
        # Columns that already carry a real index (PKs, FK movie_id
        # indexes) must not be candidates.
        assert ("title", "id") not in keys
        assert ("movie_companies", "movie_id") not in keys

    def test_recommendation_structure(self, target_db, whatif_estimator):
        advisor = IndexAdvisor(target_db, whatif_estimator)
        queries = [parse_query(t) for t in WORKLOAD]
        recommendation = advisor.recommend(queries, max_indexes=2)
        assert len(recommendation.indexes) <= 2
        assert recommendation.baseline_seconds > 0
        assert recommendation.predicted_seconds <= \
            recommendation.baseline_seconds + 1e-12
        assert recommendation.predicted_speedup >= 1.0

    def test_no_leftover_indexes_after_recommend(self, target_db,
                                                 whatif_estimator):
        advisor = IndexAdvisor(target_db, whatif_estimator)
        before = set(target_db.indexes)
        advisor.recommend([parse_query(t) for t in WORKLOAD], max_indexes=1)
        assert set(target_db.indexes) == before

    def test_stops_below_the_minimum_improvement(self, target_db,
                                                 whatif_estimator,
                                                 monkeypatch):
        advisor = IndexAdvisor(target_db, whatif_estimator)
        queries = [parse_query(t) for t in WORKLOAD]
        monkeypatch.setattr("repro.tuning.advisor._MIN_IMPROVEMENT", 1.0)
        recommendation = advisor.recommend(queries, max_indexes=2)
        assert recommendation.indexes == []
        assert recommendation.predicted_seconds == \
            recommendation.baseline_seconds

    def test_validation(self, target_db, whatif_estimator):
        advisor = IndexAdvisor(target_db, whatif_estimator)
        with pytest.raises(ModelError):
            advisor.recommend([])
        with pytest.raises(ModelError):
            advisor.recommend([parse_query(WORKLOAD[0])], max_indexes=0)
