"""Zero-shot plan selection (§4.2): candidate generation and choice."""

import pytest

from repro.errors import ModelError
from repro.featurize import CardinalitySource
from repro.models import TrainerConfig, ZeroShotConfig, ZeroShotEstimator
from repro.optimizer.learned_planner import (
    ZeroShotPlanSelector,
    candidate_plans,
)
from repro.sql import parse_query

from tests.models.conftest import build_labelled_graphs


#: A join whose hint sets yield two plans on ``tiny_imdb`` (a hash join
#: and a nested loop).
JOIN_QUERY = ("SELECT COUNT(*) FROM title t, movie_info_idx mii "
              "WHERE t.id = mii.movie_id AND t.id < 50")


class TestCandidateGeneration:
    def test_candidates_are_distinct_plans(self, tiny_imdb):
        plans = candidate_plans(tiny_imdb, parse_query(JOIN_QUERY))
        assert len(plans) >= 2
        labels = {tuple(n.label() for n in p.nodes()) for p in plans}
        assert len(labels) == len(plans)  # de-duplicated

    def test_first_candidate_is_classical_optimum(self, tiny_imdb):
        from repro.optimizer import plan_query
        plans = candidate_plans(tiny_imdb, parse_query(JOIN_QUERY))
        classical = plan_query(tiny_imdb, parse_query(JOIN_QUERY))
        assert [n.label() for n in plans[0].nodes()] == \
            [n.label() for n in classical.nodes()]

    def test_single_table_query(self, tiny_imdb):
        plans = candidate_plans(
            tiny_imdb, parse_query("SELECT COUNT(*) FROM title t "
                                   "WHERE t.id < 100"))
        assert len(plans) >= 1


class TestSelector:
    @pytest.fixture(scope="class")
    def estimator(self, tiny_imdb):
        graphs = build_labelled_graphs([tiny_imdb], 50,
                                       CardinalitySource.ESTIMATED, seed=5)
        estimator = ZeroShotEstimator(ZeroShotConfig(hidden_dim=32, seed=0))
        return estimator.fit_graphs(graphs, TrainerConfig(
            epochs=25, batch_size=32, early_stopping_patience=25))

    def test_choice_structure(self, tiny_imdb, estimator):
        selector = ZeroShotPlanSelector(tiny_imdb, estimator)
        choice = selector.choose(parse_query(JOIN_QUERY))
        assert choice.num_candidates >= 2
        assert choice.predicted_seconds > 0
        assert len(choice.predictions) == choice.num_candidates
        assert choice.predicted_seconds == min(choice.predictions)

    def test_unfitted_model_rejected(self, tiny_imdb):
        with pytest.raises(ModelError):
            ZeroShotPlanSelector(tiny_imdb, ZeroShotEstimator())

    def test_invalid_switch_margin_rejected(self, tiny_imdb, estimator):
        for margin in (-0.1, 1.0, 1.5):
            with pytest.raises(ModelError):
                ZeroShotPlanSelector(tiny_imdb, estimator,
                                     switch_margin=margin)


class TestSwitchMargin:
    """The switch-margin fallback: predicted wins inside the margin
    must not flip the choice away from the classical plan."""

    @pytest.fixture(scope="class")
    def estimator(self, tiny_imdb):
        graphs = build_labelled_graphs([tiny_imdb], 50,
                                       CardinalitySource.ESTIMATED, seed=5)
        estimator = ZeroShotEstimator(ZeroShotConfig(hidden_dim=32, seed=0))
        return estimator.fit_graphs(graphs, TrainerConfig(
            epochs=25, batch_size=32, early_stopping_patience=25))

    def test_extreme_margin_always_keeps_classical(self, tiny_imdb,
                                                   estimator):
        selector = ZeroShotPlanSelector(tiny_imdb, estimator,
                                        switch_margin=0.99)
        choice = selector.choose(parse_query(JOIN_QUERY))
        assert choice.agrees_with_classical
        assert choice.predicted_seconds == choice.predictions[0]

    def test_zero_margin_takes_any_predicted_win(self, tiny_imdb,
                                                 estimator):
        selector = ZeroShotPlanSelector(tiny_imdb, estimator,
                                        switch_margin=0.0)
        choice = selector.choose(parse_query(JOIN_QUERY))
        assert choice.predicted_seconds == min(choice.predictions)

    def test_margin_interpolates(self, tiny_imdb, estimator):
        """Whenever the zero-margin selector switches plans, a large
        enough margin forces the choice back to classical."""
        queries = [parse_query(JOIN_QUERY),
                   parse_query("SELECT COUNT(*) FROM title t, "
                               "movie_companies mc WHERE t.id = mc.movie_id "
                               "AND t.production_year > 1990")]
        eager = ZeroShotPlanSelector(tiny_imdb, estimator, switch_margin=0.0)
        cautious = ZeroShotPlanSelector(tiny_imdb, estimator,
                                        switch_margin=0.99)
        for query in queries:
            eager_choice = eager.choose(query)
            cautious_choice = cautious.choose(query)
            assert cautious_choice.agrees_with_classical
            # The candidate portfolio itself is margin-independent.
            assert eager_choice.predictions == cautious_choice.predictions
