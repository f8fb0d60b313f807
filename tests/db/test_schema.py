"""Schema objects: validation and lookup."""

import dataclasses
import pickle

import pytest

from repro.db import DataType, Schema
from repro.db.schema import Column, ForeignKey, Table
from repro.errors import SchemaError


def make_table(name="t", pk="id"):
    return Table(
        name=name,
        columns=(Column("id", DataType.INTEGER),
                 Column("x", DataType.FLOAT),
                 Column("c", DataType.CATEGORICAL, num_categories=5)),
        primary_key=pk,
    )


class TestColumn:
    def test_width(self):
        assert Column("a", DataType.INTEGER).width_bytes == 4
        assert Column("a", DataType.FLOAT).width_bytes == 8
        assert Column("a", DataType.CATEGORICAL, num_categories=3).width_bytes == 4

    def test_categorical_requires_domain(self):
        with pytest.raises(SchemaError):
            Column("a", DataType.CATEGORICAL)

    def test_non_categorical_rejects_domain(self):
        with pytest.raises(SchemaError):
            Column("a", DataType.INTEGER, num_categories=3)

    def test_invalid_name(self):
        with pytest.raises(SchemaError):
            Column("not a name", DataType.INTEGER)

    def test_numeric_flag(self):
        assert DataType.INTEGER.is_numeric
        assert DataType.FLOAT.is_numeric
        assert not DataType.CATEGORICAL.is_numeric


class TestTable:
    def test_lookup(self):
        table = make_table()
        assert table.column("x").data_type is DataType.FLOAT
        assert table.has_column("c")
        assert not table.has_column("nope")

    def test_missing_column_raises(self):
        with pytest.raises(SchemaError):
            make_table().column("nope")

    def test_duplicate_columns(self):
        with pytest.raises(SchemaError):
            Table("t", (Column("a", DataType.INTEGER),
                        Column("a", DataType.FLOAT)))

    def test_empty_columns(self):
        with pytest.raises(SchemaError):
            Table("t", ())

    def test_bad_primary_key(self):
        with pytest.raises(SchemaError):
            make_table(pk="nope")

    def test_tuple_width(self):
        assert make_table().tuple_width_bytes == 4 + 8 + 4


class TestCachedTupleWidth:
    """The width is summed once per table and kept on the instance; it
    is derived, so nothing compared, hashed or stored may see it."""

    def test_unpickled_table_reports_the_same_width(self):
        table = make_table()
        width = table.tuple_width_bytes
        clone = pickle.loads(pickle.dumps(table))
        assert "tuple_width_bytes" not in vars(clone)
        assert clone.tuple_width_bytes == width == 4 + 8 + 4

    def test_pickle_bytes_do_not_depend_on_a_read(self):
        unread, read = make_table(), make_table()
        read.tuple_width_bytes
        assert "tuple_width_bytes" in vars(read)
        assert pickle.dumps(read) == pickle.dumps(unread)

    def test_equality_and_hash_ignore_the_cache(self):
        read, unread = make_table(), make_table()
        read.tuple_width_bytes
        assert read == unread
        assert hash(read) == hash(unread)
        assert {unread: "found"}[read] == "found"
        assert read != make_table(pk=None)

    def test_table_stays_frozen(self):
        table = make_table()
        with pytest.raises(dataclasses.FrozenInstanceError):
            table.tuple_width_bytes = 1
        assert table.tuple_width_bytes == 4 + 8 + 4


class TestSchema:
    def test_from_tables_and_fk(self):
        parent = make_table("p")
        child = Table(
            "c",
            (Column("id", DataType.INTEGER), Column("p_id", DataType.INTEGER)),
        )
        schema = Schema.from_tables(
            "db", [parent, child], [ForeignKey("c", "p_id", "p", "id")]
        )
        assert schema.table_names == ["p", "c"]
        assert schema.foreign_keys == [ForeignKey("c", "p_id", "p", "id")]

    def test_duplicate_table(self):
        with pytest.raises(SchemaError):
            Schema.from_tables("db", [make_table("a"), make_table("a")])

    def test_fk_unknown_table(self):
        with pytest.raises(SchemaError):
            Schema.from_tables("db", [make_table("a")],
                               [ForeignKey("a", "id", "missing", "id")])

    def test_fk_type_mismatch(self):
        a = Table("a", (Column("id", DataType.INTEGER),))
        b = Table("b", (Column("a_id", DataType.FLOAT),))
        with pytest.raises(SchemaError):
            Schema.from_tables("db", [a, b],
                               [ForeignKey("b", "a_id", "a", "id")])

    def test_missing_table_lookup(self):
        with pytest.raises(SchemaError):
            Schema("empty").table("ghost")
