"""The :class:`Database` object: schema + data + statistics + indexes.

This is the library's equivalent of one Postgres database.  It owns

* the stored table data,
* ``ANALYZE``-style statistics (estimates for the optimizer),
* B-tree indexes (real or hypothetical, for what-if planning).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.db.index import Index
from repro.db.schema import Schema
from repro.db.statistics import TableStatistics, analyze_table
from repro.db.table_data import TableData
from repro.errors import CatalogError, SchemaError

__all__ = ["Database"]


@dataclass
class Database:
    """One database instance.

    Construct via :meth:`from_tables`, then call :meth:`analyze` before
    planning queries against it.
    """

    name: str
    schema: Schema
    data: dict[str, TableData] = field(default_factory=dict)
    statistics: dict[str, TableStatistics] = field(default_factory=dict)
    indexes: dict[str, Index] = field(default_factory=dict)

    @classmethod
    def from_tables(cls, name: str, schema: Schema,
                    data: dict[str, TableData]) -> "Database":
        missing = set(schema.table_names) - set(data)
        extra = set(data) - set(schema.table_names)
        if missing or extra:
            raise SchemaError(
                f"database {name!r}: data does not match schema "
                f"(missing={sorted(missing)}, extra={sorted(extra)})"
            )
        return cls(name=name, schema=schema, data=dict(data))

    # ------------------------------------------------------------------
    # Data access
    # ------------------------------------------------------------------
    def table_data(self, table_name: str) -> TableData:
        try:
            return self.data[table_name]
        except KeyError:
            raise SchemaError(
                f"no data for table {table_name!r} in database {self.name!r}"
            ) from None

    def num_rows(self, table_name: str) -> int:
        return self.table_data(table_name).num_rows

    def total_rows(self) -> int:
        return sum(data.num_rows for data in self.data.values())

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def analyze(self) -> None:
        """Compute statistics for all tables (like running ``ANALYZE``)."""
        for table_name, data in self.data.items():
            self.statistics[table_name] = analyze_table(data)

    def table_statistics(self, table_name: str) -> TableStatistics:
        try:
            return self.statistics[table_name]
        except KeyError:
            raise CatalogError(
                f"no statistics for table {table_name!r}; call analyze() first"
            ) from None

    @property
    def is_analyzed(self) -> bool:
        return set(self.statistics) == set(self.schema.table_names)

    # ------------------------------------------------------------------
    # Indexes
    # ------------------------------------------------------------------
    def create_index(self, name: str, table_name: str, column_name: str,
                     unique: bool = False) -> Index:
        """Create and build a real B-tree index."""
        self._check_index_target(name, table_name, column_name)
        index = Index(name=name, table_name=table_name, column_name=column_name,
                      unique=unique)
        index.build(self.table_data(table_name))
        self.indexes[name] = index
        return index

    def create_hypothetical_index(self, name: str, table_name: str,
                                  column_name: str) -> Index:
        """Register a what-if index: visible to the planner, never executed."""
        self._check_index_target(name, table_name, column_name)
        table = self.schema.table(table_name)
        index = Index(name=name, table_name=table_name, column_name=column_name,
                      hypothetical=True,
                      key_width_bytes=table.column(column_name).width_bytes)
        index.estimate_for_rows(self.num_rows(table_name))
        self.indexes[name] = index
        return index

    def drop_index(self, name: str) -> None:
        if name not in self.indexes:
            raise SchemaError(f"no index named {name!r}")
        del self.indexes[name]

    def indexes_on(self, table_name: str,
                   column_name: str | None = None,
                   include_hypothetical: bool = True) -> list[Index]:
        """Indexes on a table (optionally restricted to one column)."""
        found = []
        for index in self.indexes.values():
            if index.table_name != table_name:
                continue
            if column_name is not None and index.column_name != column_name:
                continue
            if index.hypothetical and not include_hypothetical:
                continue
            found.append(index)
        return found

    def _check_index_target(self, name: str, table_name: str,
                            column_name: str) -> None:
        if name in self.indexes:
            raise SchemaError(f"duplicate index name {name!r}")
        table = self.schema.table(table_name)
        if not table.has_column(column_name):
            raise SchemaError(
                f"cannot index {table_name}.{column_name}: no such column"
            )
