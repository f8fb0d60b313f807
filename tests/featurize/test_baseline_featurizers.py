"""MSCN and E2E featurizations: vocabulary behaviour and non-transferability."""

import numpy as np
import pytest

from repro.engine import execute_plan
from repro.errors import FeaturizationError
from repro.featurize import E2EFeaturizer, MSCNFeaturizer
from repro.featurize.graph import node_levels
from repro.optimizer import plan_query
from repro.sql import parse_query


TRAIN_TEXTS = [
    "SELECT COUNT(*) FROM title t WHERE t.production_year > 2000",
    "SELECT COUNT(*) FROM title t, movie_companies mc "
    "WHERE t.id = mc.movie_id AND mc.company_type_id = 1",
    "SELECT COUNT(*) FROM title t, cast_info ci "
    "WHERE t.id = ci.movie_id AND ci.role_id = 2 AND t.votes > 100",
]


@pytest.fixture()
def queries():
    return [parse_query(text) for text in TRAIN_TEXTS]


class TestMSCN:
    def test_vocabulary_built(self, tiny_imdb, queries):
        featurizer = MSCNFeaturizer(tiny_imdb).fit(queries)
        assert set(featurizer.vocabulary.tables) == \
            {"title", "movie_companies", "cast_info"}
        assert len(featurizer.vocabulary.joins) == 2
        assert "title.production_year" in featurizer.vocabulary.columns

    def test_sample_shapes(self, tiny_imdb, queries):
        featurizer = MSCNFeaturizer(tiny_imdb).fit(queries)
        sample = featurizer.featurize(queries[2], target_runtime_seconds=0.2)
        assert sample.table_features.shape == (2, featurizer.table_dim)
        assert sample.join_features.shape == (1, featurizer.join_dim)
        assert sample.predicate_features.shape == (2, featurizer.predicate_dim)
        assert sample.target_log_runtime == pytest.approx(np.log(0.2))

    def test_no_predicate_query_padded(self, tiny_imdb, queries):
        featurizer = MSCNFeaturizer(tiny_imdb).fit(queries)
        query = parse_query("SELECT COUNT(*) FROM title t")
        sample = featurizer.featurize(query)
        assert sample.predicate_features.shape[0] == 1
        assert not sample.predicate_features.any()

    def test_unknown_table_fails(self, tiny_imdb, queries):
        """The defining limitation: MSCN cannot encode out-of-vocabulary
        objects, hence cannot transfer to a new database."""
        featurizer = MSCNFeaturizer(tiny_imdb).fit(queries)
        unseen = parse_query("SELECT COUNT(*) FROM movie_keyword mk "
                             "WHERE mk.keyword_id = 4")
        with pytest.raises(FeaturizationError):
            featurizer.featurize(unseen)

    def test_unfitted_rejected(self, tiny_imdb, queries):
        with pytest.raises(FeaturizationError):
            MSCNFeaturizer(tiny_imdb).featurize(queries[0])

    def test_literal_normalization_bounds(self, tiny_imdb, queries):
        featurizer = MSCNFeaturizer(tiny_imdb).fit(queries)
        sample = featurizer.featurize(queries[0])
        literal = sample.predicate_features[0, -1]
        assert 0.0 <= literal <= 1.0


class TestE2E:
    def _plans(self, db, texts=TRAIN_TEXTS):
        return [plan_query(db, parse_query(t)) for t in texts]

    def test_vocabulary_and_dims(self, tiny_imdb):
        plans = self._plans(tiny_imdb)
        featurizer = E2EFeaturizer(tiny_imdb).fit(plans)
        assert featurizer.is_fitted
        assert "title.production_year" in featurizer.columns
        assert featurizer.node_dim > 11

    def test_tree_sample_structure(self, tiny_imdb):
        plans = self._plans(tiny_imdb)
        featurizer = E2EFeaturizer(tiny_imdb).fit(plans)
        sample = featurizer.featurize(plans[1], target_runtime_seconds=0.1)
        assert sample.num_nodes == plans[1].num_nodes
        assert len(sample.edges) == sample.num_nodes - 1  # tree
        levels = node_levels(sample.num_nodes, sample.edges)
        assert levels[sample.root] == max(levels)

    def test_unknown_column_fails(self, tiny_imdb):
        plans = self._plans(tiny_imdb)
        featurizer = E2EFeaturizer(tiny_imdb).fit(plans)
        unseen = plan_query(tiny_imdb, parse_query(
            "SELECT COUNT(*) FROM title t WHERE t.rating > 8.0"
        ))
        with pytest.raises(FeaturizationError):
            featurizer.featurize(unseen)

    def test_unfitted_rejected(self, tiny_imdb):
        plans = self._plans(tiny_imdb)
        with pytest.raises(FeaturizationError):
            E2EFeaturizer(tiny_imdb).featurize(plans[0])

    def test_estimated_cardinalities_in_features(self, tiny_imdb):
        plans = self._plans(tiny_imdb)
        featurizer = E2EFeaturizer(tiny_imdb).fit(plans)
        sample = featurizer.featurize(plans[0])
        # Feature at index len(ops)=9 is log1p(est_rows) of each node.
        assert sample.features[:, 9].max() > 0
