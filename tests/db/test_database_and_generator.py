"""Database object, synthetic generator, IMDB-shaped dataset."""

import numpy as np
import pytest

from repro.db import (
    Database,
    SyntheticDatabaseSpec,
    generate_database,
    generate_training_database_specs,
    make_imdb_database,
)
from repro.db.imdb import IMDB_TABLE_NAMES
from repro.errors import CatalogError, SchemaError


class TestDatabase:
    def test_indexes_on(self, two_table_db):
        assert len(two_table_db.indexes_on("parent")) == 1
        assert two_table_db.indexes_on("parent", "id")[0].unique
        assert two_table_db.indexes_on("child") == []

    def test_create_and_drop_index(self, two_table_db):
        two_table_db.create_index("child_amount", "child", "amount")
        assert len(two_table_db.indexes_on("child")) == 1
        two_table_db.drop_index("child_amount")
        assert two_table_db.indexes_on("child") == []

    def test_duplicate_index_name(self, two_table_db):
        with pytest.raises(SchemaError):
            two_table_db.create_index("parent_pkey", "parent", "value")

    def test_index_on_missing_column(self, two_table_db):
        with pytest.raises(SchemaError):
            two_table_db.create_index("bad", "parent", "ghost")

    def test_drop_missing_index(self, two_table_db):
        with pytest.raises(SchemaError):
            two_table_db.drop_index("ghost")

    def test_hypothetical_index(self, two_table_db):
        index = two_table_db.create_hypothetical_index("hypo", "child", "amount")
        assert index.hypothetical
        assert index.num_rows == 500
        # visible by default, hidden when excluded
        assert two_table_db.indexes_on("child", "amount")
        assert not two_table_db.indexes_on("child", "amount",
                                           include_hypothetical=False)

    def test_statistics_missing(self):
        import repro.db.schema as sch
        from repro.db import DataType, TableData
        from repro.db.schema import Column, Table
        table = Table("t", (Column("id", DataType.INTEGER),))
        schema = sch.Schema.from_tables("d", [table])
        data = TableData(table=table, columns={"id": np.arange(3)})
        database = Database.from_tables("d", schema, {"t": data})
        assert not database.is_analyzed
        with pytest.raises(CatalogError):
            database.table_statistics("t")

    def test_from_tables_mismatch(self, two_table_db):
        with pytest.raises(SchemaError):
            Database.from_tables("x", two_table_db.schema, {})


class TestSyntheticGenerator:
    def test_determinism(self):
        spec = SyntheticDatabaseSpec(name="d", seed=3, num_tables=4,
                                     min_rows=200, max_rows=1_000)
        db_a = generate_database(spec)
        db_b = generate_database(spec)
        assert db_a.schema.table_names == db_b.schema.table_names
        for name in db_a.schema.table_names:
            np.testing.assert_array_equal(
                db_a.table_data(name).column_values("id"),
                db_b.table_data(name).column_values("id"),
            )
            for column in db_a.schema.table(name).columns:
                np.testing.assert_array_equal(
                    db_a.table_data(name).column_values(column.name),
                    db_b.table_data(name).column_values(column.name),
                )

    def test_join_graph_is_tree(self, small_synthetic_db):
        schema = small_synthetic_db.schema
        assert len(schema.foreign_keys) == len(schema.table_names) - 1

    def test_referential_integrity(self, small_synthetic_db):
        for fk in small_synthetic_db.schema.foreign_keys:
            child_values = small_synthetic_db.table_data(
                fk.child_table).column_values(fk.child_column)
            parent_rows = small_synthetic_db.num_rows(fk.parent_table)
            assert child_values.min() >= 0
            assert child_values.max() < parent_rows

    def test_row_bounds_respected(self, small_synthetic_db):
        for name in small_synthetic_db.schema.table_names:
            assert small_synthetic_db.num_rows(name) >= 300

    def test_analyzed_and_indexed(self, small_synthetic_db):
        assert small_synthetic_db.is_analyzed
        for name in small_synthetic_db.schema.table_names:
            assert small_synthetic_db.indexes_on(name, "id")

    def test_training_fleet_varies(self):
        databases = [generate_database(spec) for spec in
                     generate_training_database_specs(
                         4, base_seed=0, min_rows=200, max_rows=1_000)]
        assert len(databases) == 4
        table_counts = {len(db.schema.table_names) for db in databases}
        assert len(table_counts) > 1  # schemas differ across the fleet

    def test_spec_validation(self):
        with pytest.raises(SchemaError):
            SyntheticDatabaseSpec(name="x", seed=0, num_tables=1)
        with pytest.raises(SchemaError):
            SyntheticDatabaseSpec(name="x", seed=0, min_rows=10, max_rows=5)
        with pytest.raises(SchemaError):
            generate_training_database_specs(0)


class TestImdb:
    def test_tables_present(self, tiny_imdb):
        assert set(tiny_imdb.schema.table_names) == set(IMDB_TABLE_NAMES)

    def test_fk_edges_point_to_title(self, tiny_imdb):
        for fk in tiny_imdb.schema.foreign_keys:
            assert fk.parent_table == "title"
            assert fk.parent_column == "id"

    def test_referential_integrity(self, tiny_imdb):
        n_title = tiny_imdb.num_rows("title")
        for fk in tiny_imdb.schema.foreign_keys:
            movie_ids = tiny_imdb.table_data(fk.child_table).column_values("movie_id")
            assert movie_ids.min() >= 0
            assert movie_ids.max() < n_title

    def test_year_votes_correlation(self, tiny_imdb):
        """The injected correlation (newer -> more votes) must exist: it is
        what makes estimated cardinalities deviate from exact ones."""
        title = tiny_imdb.table_data("title")
        years = title.column_values("production_year").astype(float)
        votes = np.log1p(title.column_values("votes").astype(float))
        correlation = np.corrcoef(years, votes)[0, 1]
        assert correlation > 0.3

    def test_fk_fanout_skewed(self, tiny_imdb):
        movie_ids = tiny_imdb.table_data("cast_info").column_values("movie_id")
        counts = np.bincount(movie_ids, minlength=tiny_imdb.num_rows("title"))
        # Top 10% of movies should hold well over 10% of cast entries.
        top = np.sort(counts)[::-1][: max(len(counts) // 10, 1)].sum()
        assert top / counts.sum() > 0.3

    def test_scale_parameter(self):
        small = make_imdb_database(scale=0.02, seed=1)
        smaller_rows = small.total_rows()
        assert smaller_rows < 20_000
        with pytest.raises(ValueError):
            make_imdb_database(scale=0.0)

    def test_determinism(self):
        a = make_imdb_database(scale=0.02, seed=5)
        b = make_imdb_database(scale=0.02, seed=5)
        np.testing.assert_array_equal(
            a.table_data("title").column_values("votes"),
            b.table_data("title").column_values("votes"),
        )
