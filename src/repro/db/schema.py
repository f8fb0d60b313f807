"""Schema objects: columns, tables, foreign keys.

A :class:`Schema` is a validated collection of :class:`Table` objects
plus :class:`ForeignKey` edges.  It knows nothing about the stored data;
:class:`repro.db.database.Database` binds a schema to data, statistics
and indexes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from repro.db.types import DataType, type_width_bytes
from repro.errors import SchemaError

__all__ = ["Column", "Table", "ForeignKey", "Schema"]


@dataclass(frozen=True)
class Column:
    """A column definition.

    ``num_categories`` is only meaningful for categorical columns and
    bounds the dictionary codes ``0..num_categories-1``.
    """

    name: str
    data_type: DataType
    num_categories: int | None = None

    def __post_init__(self):
        if not self.name or not self.name.isidentifier():
            raise SchemaError(f"invalid column name {self.name!r}")
        if self.data_type is DataType.CATEGORICAL:
            if self.num_categories is None or self.num_categories <= 0:
                raise SchemaError(
                    f"categorical column {self.name!r} needs a positive num_categories"
                )
        elif self.num_categories is not None:
            raise SchemaError(
                f"non-categorical column {self.name!r} must not set num_categories"
            )

    @property
    def width_bytes(self) -> int:
        return type_width_bytes(self.data_type)


@dataclass(frozen=True)
class Table:
    """A table definition: an ordered list of uniquely named columns.

    ``primary_key`` names the PK column (by convention an integer id).
    """

    name: str
    columns: tuple[Column, ...]
    primary_key: str | None = None

    def __post_init__(self):
        if not self.name or not self.name.isidentifier():
            raise SchemaError(f"invalid table name {self.name!r}")
        if not self.columns:
            raise SchemaError(f"table {self.name!r} has no columns")
        names = [column.name for column in self.columns]
        if len(set(names)) != len(names):
            raise SchemaError(f"table {self.name!r} has duplicate column names")
        if self.primary_key is not None and self.primary_key not in names:
            raise SchemaError(
                f"primary key {self.primary_key!r} is not a column of {self.name!r}"
            )

    def column(self, name: str) -> Column:
        for column in self.columns:
            if column.name == name:
                return column
        raise SchemaError(f"no column {name!r} in table {self.name!r}")

    def has_column(self, name: str) -> bool:
        return any(column.name == name for column in self.columns)

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(column.name for column in self.columns)

    @cached_property
    def tuple_width_bytes(self) -> int:
        """Total payload width of one tuple (excluding the header).

        Summed once per table: the columns are frozen, and planning and
        featurizing one query read it about nine times."""
        return sum(column.width_bytes for column in self.columns)

    def __getstate__(self) -> dict:
        # The cached width is derived, so a pickle holds the fields only:
        # stored bytes do not depend on whether the width was read.
        state = self.__dict__.copy()
        state.pop("tuple_width_bytes", None)
        return state


@dataclass(frozen=True)
class ForeignKey:
    """A foreign-key edge ``child.child_column -> parent.parent_column``."""

    child_table: str
    child_column: str
    parent_table: str
    parent_column: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (f"{self.child_table}.{self.child_column} -> "
                f"{self.parent_table}.{self.parent_column}")


@dataclass
class Schema:
    """A validated set of tables and foreign keys."""

    name: str
    tables: dict[str, Table] = field(default_factory=dict)
    foreign_keys: list[ForeignKey] = field(default_factory=list)

    @classmethod
    def from_tables(cls, name: str, tables: list[Table],
                    foreign_keys: list[ForeignKey] | None = None) -> "Schema":
        schema = cls(name=name)
        for table in tables:
            schema._add_table(table)
        for foreign_key in foreign_keys or []:
            schema._add_foreign_key(foreign_key)
        return schema

    def _add_table(self, table: Table) -> None:
        if table.name in self.tables:
            raise SchemaError(f"duplicate table {table.name!r}")
        self.tables[table.name] = table

    def _add_foreign_key(self, foreign_key: ForeignKey) -> None:
        child = self.table(foreign_key.child_table)
        parent = self.table(foreign_key.parent_table)
        child_column = child.column(foreign_key.child_column)
        parent_column = parent.column(foreign_key.parent_column)
        if child_column.data_type != parent_column.data_type:
            raise SchemaError(
                f"foreign key {foreign_key} joins columns of different types "
                f"({child_column.data_type} vs {parent_column.data_type})"
            )
        self.foreign_keys.append(foreign_key)

    def table(self, name: str) -> Table:
        try:
            return self.tables[name]
        except KeyError:
            raise SchemaError(f"no table {name!r} in schema {self.name!r}") from None

    def has_table(self, name: str) -> bool:
        return name in self.tables

    @property
    def table_names(self) -> list[str]:
        return list(self.tables)
