"""MSCN featurization (Kipf et al., CIDR 2019) — workload-driven baseline.

MSCN encodes a query as three *sets*: tables, joins and predicates.
Tables and joins are one-hot encoded against a **per-database
vocabulary**, predicates as (column one-hot, operator one-hot,
min-max-normalized literal).  This featurization internalizes the
database's identity — precisely why it cannot transfer to an unseen
database (Section 2.2 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.db.database import Database
from repro.errors import FeaturizationError
from repro.featurize.vocabulary import (
    COMPARISON_INDEX,
    check_runtime_label,
    column_key,
    normalized_literal,
)
from repro.sql.ast import Query

__all__ = ["MSCNVocabulary", "MSCNSample", "MSCNFeaturizer"]


@dataclass
class MSCNVocabulary:
    """Per-database vocabularies of tables, joins and columns."""

    tables: dict[str, int] = field(default_factory=dict)
    joins: dict[str, int] = field(default_factory=dict)
    columns: dict[str, int] = field(default_factory=dict)

    @property
    def is_empty(self) -> bool:
        return not self.tables


@dataclass
class MSCNSample:
    """One featurized query: three set matrices plus the label."""

    table_features: np.ndarray
    join_features: np.ndarray
    predicate_features: np.ndarray
    target_log_runtime: float | None = None


def _canonical_join(join) -> str:
    sides = sorted([str(join.left), str(join.right)])
    return f"{sides[0]}={sides[1]}"


class MSCNFeaturizer:
    """Builds MSCN samples for one database."""

    def __init__(self, database: Database):
        self.database = database
        self.vocabulary = MSCNVocabulary()

    # ------------------------------------------------------------------
    def fit(self, queries: list[Query]) -> "MSCNFeaturizer":
        """Build vocabularies from the training workload."""
        for query in queries:
            for table in query.tables:
                self.vocabulary.tables.setdefault(table.table_name,
                                                  len(self.vocabulary.tables))
            for join in query.joins:
                self.vocabulary.joins.setdefault(_canonical_join(join),
                                                 len(self.vocabulary.joins))
            for predicate in query.predicates:
                key = column_key(query, predicate)
                self.vocabulary.columns.setdefault(key,
                                                   len(self.vocabulary.columns))
        return self

    # ------------------------------------------------------------------
    @property
    def table_dim(self) -> int:
        return len(self.vocabulary.tables) + 1  # + log table rows

    @property
    def join_dim(self) -> int:
        return max(len(self.vocabulary.joins), 1)

    @property
    def predicate_dim(self) -> int:
        return len(self.vocabulary.columns) + len(COMPARISON_INDEX) + 1

    # ------------------------------------------------------------------
    def featurize(self, query: Query,
                  target_runtime_seconds: float | None = None) -> MSCNSample:
        if self.vocabulary.is_empty:
            raise FeaturizationError("MSCN featurizer used before fit()")

        table_rows = []
        for table in query.tables:
            if table.table_name not in self.vocabulary.tables:
                raise FeaturizationError(
                    f"table {table.table_name!r} is not in the MSCN vocabulary "
                    "(one-hot featurizations cannot transfer across databases)"
                )
            vector = np.zeros(self.table_dim)
            vector[self.vocabulary.tables[table.table_name]] = 1.0
            stats = self.database.table_statistics(table.table_name)
            vector[-1] = np.log1p(stats.num_rows)
            table_rows.append(vector)

        join_rows = []
        for join in query.joins:
            key = _canonical_join(join)
            if key not in self.vocabulary.joins:
                raise FeaturizationError(
                    f"join {key!r} is not in the MSCN vocabulary"
                )
            vector = np.zeros(self.join_dim)
            vector[self.vocabulary.joins[key]] = 1.0
            join_rows.append(vector)
        if not join_rows:
            join_rows.append(np.zeros(self.join_dim))

        predicate_rows = []
        for predicate in query.predicates:
            key = column_key(query, predicate)
            if key not in self.vocabulary.columns:
                raise FeaturizationError(
                    f"column {key!r} is not in the MSCN vocabulary"
                )
            vector = np.zeros(self.predicate_dim)
            vector[self.vocabulary.columns[key]] = 1.0
            offset = len(self.vocabulary.columns)
            vector[offset + COMPARISON_INDEX[predicate.operator]] = 1.0
            vector[-1] = normalized_literal(self.database, query, predicate)
            predicate_rows.append(vector)
        if not predicate_rows:
            predicate_rows.append(np.zeros(self.predicate_dim))

        target = None
        if target_runtime_seconds is not None:
            check_runtime_label(target_runtime_seconds)
            target = float(np.log(target_runtime_seconds))
        return MSCNSample(
            table_features=np.stack(table_rows),
            join_features=np.stack(join_rows),
            predicate_features=np.stack(predicate_rows),
            target_log_runtime=target,
        )
