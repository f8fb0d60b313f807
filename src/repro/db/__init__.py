"""Relational database substrate.

The paper's experiments run on PostgreSQL over 20 public datasets.  This
package provides the equivalent substrate: schemas, columnar data,
Postgres-style statistics (``ANALYZE``), B-tree index metadata, a
synthetic database generator (the 19 training databases) and an
IMDB-shaped evaluation database (the unseen holdout).
"""

from repro.db.database import Database
from repro.db.generator import (
    SyntheticDatabaseSpec,
    generate_database,
    generate_training_database_specs,
)
from repro.db.imdb import make_imdb_database
from repro.db.index import Index
from repro.db.schema import Schema
from repro.db.statistics import ColumnStatistics
from repro.db.table_data import TableData
from repro.db.types import DataType

__all__ = [
    "ColumnStatistics",
    "DataType",
    "Database",
    "Index",
    "Schema",
    "SyntheticDatabaseSpec",
    "TableData",
    "generate_database",
    "generate_training_database_specs",
    "make_imdb_database",
]
