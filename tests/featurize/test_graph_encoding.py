"""Zero-shot graph encoding: structure, transferability, batching."""

import numpy as np
import pytest

from repro.engine import execute_plan
from repro.errors import FeaturizationError
from repro.featurize import (
    CardinalitySource,
    NODE_TYPES,
    PlanGraph,
    ZeroShotFeaturizer,
    flat_plan_features,
)
from repro.featurize.batch import encode_graphs, fit_scalers, merge_encoded
from repro.featurize.graph import FEATURE_DIMS
from repro.featurize.plan_features import FLAT_DIM
from repro.optimizer import plan_query
from repro.sql import parse_query


def batched(graphs, scalers=None, require_targets=False):
    """Encode, then merge: the two stages every batch goes through."""
    return merge_encoded(encode_graphs(graphs, scalers), require_targets)


def featurized(db, text, source=CardinalitySource.ESTIMATED, execute=False,
               runtime=None):
    plan = plan_query(db, parse_query(text))
    if execute:
        execute_plan(db, plan)
    return ZeroShotFeaturizer(source).featurize(plan, db, runtime), plan


PAPER_QUERY = ("SELECT MIN(t.production_year) FROM movie_companies mc, title t "
               "WHERE t.id = mc.movie_id AND t.production_year > 1990 "
               "AND mc.company_type_id = 2")


class TestGraphStructure:
    def test_figure2_example_node_types(self, tiny_imdb):
        """The paper's Figure 2 query produces operators, tables, columns,
        predicates and an aggregate node."""
        graph, plan = featurized(tiny_imdb, PAPER_QUERY)
        types = set(graph.node_type_of)
        assert {"plan_op", "table", "column", "predicate", "aggregate"} <= types
        num_ops = sum(1 for t in graph.node_type_of if t == "plan_op")
        assert num_ops == plan.num_nodes

    def test_column_nodes_are_shared(self, tiny_imdb):
        """A column referenced by a predicate and a join key appears once
        (the encoding is a DAG, not a tree)."""
        text = ("SELECT COUNT(*) FROM title t, movie_companies mc "
                "WHERE t.id = mc.movie_id AND t.id > 10")
        graph, _ = featurized(tiny_imdb, text)
        column_count = sum(1 for t in graph.node_type_of if t == "column")
        # columns: t.id (shared), mc.movie_id
        assert column_count == 2

    def test_edges_point_towards_root(self, tiny_imdb):
        graph, _ = featurized(tiny_imdb, PAPER_QUERY)
        levels = graph.levels()
        assert levels[graph.root] == max(levels)
        for child, parent in graph.edges:
            assert levels[child] < levels[parent]

    def test_feature_dims_respected(self, tiny_imdb):
        graph, _ = featurized(tiny_imdb, PAPER_QUERY)
        for node_type in NODE_TYPES:
            matrix = graph.feature_matrix(node_type)
            assert matrix.shape[1] == FEATURE_DIMS[node_type]

    def test_index_node_attached_to_index_scan(self, tiny_imdb):
        graph, plan = featurized(
            tiny_imdb, "SELECT COUNT(*) FROM title t WHERE t.id = 7")
        assert "IndexScan" in [n.operator_name for n in plan.nodes()]
        assert "index" in graph.node_type_of

    def test_runtime_label(self, tiny_imdb):
        graph, _ = featurized(tiny_imdb, PAPER_QUERY, runtime=0.5)
        assert graph.target_log_runtime == pytest.approx(np.log(0.5))

    def test_negative_runtime_rejected(self, tiny_imdb):
        with pytest.raises(FeaturizationError):
            featurized(tiny_imdb, PAPER_QUERY, runtime=-1.0)

    def test_wrong_database_rejected(self, tiny_imdb, two_table_db):
        plan = plan_query(tiny_imdb, parse_query(PAPER_QUERY))
        with pytest.raises(FeaturizationError):
            ZeroShotFeaturizer().featurize(plan, two_table_db)


class TestTransferability:
    def test_no_identity_features(self, tiny_imdb, small_synthetic_db):
        """Two structurally identical queries on different databases must
        produce graphs with the same shapes (the transferability property)."""
        imdb_graph, _ = featurized(
            tiny_imdb,
            "SELECT COUNT(*) FROM title x WHERE x.production_year > 1990",
        )
        synth_table = small_synthetic_db.schema.table_names[0]
        numeric = next(
            c.name for c in small_synthetic_db.schema.table(synth_table).columns
            if c.name.startswith("c") and c.data_type.is_numeric
        )
        synth_graph, _ = featurized(
            small_synthetic_db,
            f"SELECT COUNT(*) FROM {synth_table} x WHERE x.{numeric} > 0",
        )
        assert imdb_graph.node_type_of == synth_graph.node_type_of
        for node_type in NODE_TYPES:
            assert imdb_graph.feature_matrix(node_type).shape == \
                synth_graph.feature_matrix(node_type).shape

    def test_cardinality_source_changes_features(self, tiny_imdb):
        text = ("SELECT COUNT(*) FROM title t "
                "WHERE t.production_year > 2010 AND t.votes > 1000")
        est_graph, plan = featurized(tiny_imdb, text, execute=True)
        actual_graph = ZeroShotFeaturizer(CardinalitySource.ACTUAL) \
            .featurize(plan, tiny_imdb)
        est = est_graph.feature_matrix("plan_op")
        act = actual_graph.feature_matrix("plan_op")
        assert not np.allclose(est, act)

    def test_actual_source_requires_execution(self, tiny_imdb):
        from repro.errors import PlanError
        plan = plan_query(tiny_imdb, parse_query(PAPER_QUERY))
        with pytest.raises(PlanError):
            ZeroShotFeaturizer(CardinalitySource.ACTUAL).featurize(plan, tiny_imdb)


class TestBatching:
    def _graphs(self, db, n=4):
        texts = [
            "SELECT COUNT(*) FROM title t WHERE t.production_year > 2000",
            "SELECT COUNT(*) FROM title t, cast_info ci WHERE t.id = ci.movie_id",
            PAPER_QUERY,
            "SELECT MAX(t.votes) FROM title t WHERE t.kind_id = 1",
        ]
        return [featurized(db, text, runtime=0.1 * (i + 1))[0]
                for i, text in enumerate(texts[:n])]

    def test_batch_preserves_counts(self, tiny_imdb):
        graphs = self._graphs(tiny_imdb)
        batch = batched(graphs)
        assert len(batch.roots) == 4
        assert batch.num_nodes == sum(g.num_nodes for g in graphs)
        assert batch.targets is not None
        assert len(batch.targets) == 4

    def test_roots_are_valid(self, tiny_imdb):
        graphs = self._graphs(tiny_imdb)
        batch = batched(graphs)
        assert all(0 <= r < batch.num_nodes for r in batch.roots)
        assert len(set(batch.roots.tolist())) == 4

    def test_levels_cover_all_parents(self, tiny_imdb):
        graphs = self._graphs(tiny_imdb)
        batch = batched(graphs)
        parents_in_levels = set()
        for level in batch.levels:
            parents_in_levels.update(level.parent_ids.tolist())
            for node_type, slots in level.type_slots.items():
                assert len(slots) > 0
        expected_parents = set()
        offset = 0
        for graph in graphs:
            for node, lvl in enumerate(graph.levels()):
                if lvl > 0:
                    expected_parents.add(node + offset)
            offset += graph.num_nodes
        assert parents_in_levels == expected_parents

    def test_scalers_standardize(self, tiny_imdb):
        graphs = self._graphs(tiny_imdb)
        scalers = fit_scalers(graphs)
        batch = batched(graphs, scalers)
        ops = batch.features["plan_op"]
        assert np.abs(ops.mean(axis=0)).max() < 1.0

    def test_empty_batch_rejected(self):
        with pytest.raises(FeaturizationError):
            merge_encoded([])

    def test_missing_targets_flagged(self, tiny_imdb):
        graph, _ = featurized(tiny_imdb, PAPER_QUERY)
        with pytest.raises(FeaturizationError):
            batched([graph], require_targets=True)

    def test_partially_labelled_batch_rejected(self, tiny_imdb):
        """A mixed list used to silently yield ``targets=None``; now it
        raises even without ``require_targets``."""
        labelled = self._graphs(tiny_imdb, n=2)
        unlabelled, _ = featurized(tiny_imdb, PAPER_QUERY)
        with pytest.raises(FeaturizationError, match="missing runtime"):
            batched(labelled + [unlabelled])
        with pytest.raises(FeaturizationError, match="missing runtime"):
            batched(labelled + [unlabelled], require_targets=True)

    def test_encoded_graphs_rebatch_in_any_composition(self, tiny_imdb):
        """Mini-batches drawn from one encode pass match freshly built
        batches of the same graphs (what the trainer relies on)."""
        graphs = self._graphs(tiny_imdb)
        scalers = fit_scalers(graphs)
        encoded = encode_graphs(graphs, scalers)
        for subset in ([2, 0], [3, 1, 2], [1]):
            merged = merge_encoded([encoded[i] for i in subset])
            fresh = batched([graphs[i] for i in subset], scalers)
            np.testing.assert_array_equal(merged.roots, fresh.roots)
            for node_type in NODE_TYPES:
                np.testing.assert_array_equal(merged.features[node_type],
                                              fresh.features[node_type])


class TestPlanGraphValidation:
    def test_wrong_feature_shape_rejected(self):
        graph = PlanGraph()
        with pytest.raises(FeaturizationError):
            graph.add_node("table", np.zeros(99))

    def test_self_edge_rejected(self):
        graph = PlanGraph()
        node = graph.add_node("table", np.zeros(FEATURE_DIMS["table"]))
        with pytest.raises(FeaturizationError):
            graph.add_edge(node, node)


class TestFlatFeatures:
    def test_flat_vector_shape(self, tiny_imdb):
        graph, _ = featurized(tiny_imdb, PAPER_QUERY)
        vector = flat_plan_features(graph)
        assert vector.shape == (FLAT_DIM,)

    def test_flat_vector_differs_across_plans(self, tiny_imdb):
        a, _ = featurized(tiny_imdb, PAPER_QUERY)
        b, _ = featurized(tiny_imdb, "SELECT COUNT(*) FROM title t")
        assert not np.allclose(flat_plan_features(a), flat_plan_features(b))
