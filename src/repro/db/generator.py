"""Synthetic database generator.

The paper trains its zero-shot model on 19 publicly available databases
that differ in schema shape, size, skew and correlation.  We reproduce
that *axis of variation* with a parameterized generator: each generated
database has

* a random tree-shaped join graph (dimension tables referenced by
  children via ``<parent>_id`` foreign keys),
* per-table row counts drawn log-uniformly,
* attribute columns with uniform / zipfian / normal-ish distributions,
* optional intra-table column correlations (which break the optimizer's
  independence assumption, as real data does),
* skewed foreign-key fan-outs (which break uniform-join assumptions).

Everything is deterministic given the spec's seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.db.database import Database
from repro.db.schema import Column, ForeignKey, Schema, Table
from repro.db.table_data import TableData
from repro.db.types import DataType
from repro.errors import SchemaError

__all__ = [
    "SyntheticDatabaseSpec",
    "generate_database",
    "generate_training_database_specs",
]


#: What every synthetic database draws from; a spec sets only its name,
#: seed, table count and row range.
MIN_ATTRIBUTE_COLUMNS = 2
MAX_ATTRIBUTE_COLUMNS = 6
CATEGORICAL_FRACTION = 0.4
CORRELATION_PROBABILITY = 0.35
FK_SKEW_PROBABILITY = 0.5
MAX_ZIPF_PARAMETER = 1.6
NULL_FRACTION_MAX = 0.05
#: Probability that the schema is a pure star (all tables reference
#: table 0, like IMDB's title hub) instead of a random tree.
STAR_PROBABILITY = 0.4


@dataclass(frozen=True)
class SyntheticDatabaseSpec:
    """Parameters of one synthetic database."""

    name: str
    seed: int
    num_tables: int = 5
    min_rows: int = 2_000
    max_rows: int = 50_000

    def __post_init__(self):
        if self.num_tables < 2:
            raise SchemaError("a synthetic database needs at least 2 tables")
        if self.min_rows <= 0 or self.max_rows < self.min_rows:
            raise SchemaError(
                f"invalid row bounds [{self.min_rows}, {self.max_rows}]"
            )


def _zipf_codes(rng: np.random.Generator, size: int, domain: int,
                skew: float) -> np.ndarray:
    """Zipf-distributed codes in [0, domain) via inverse-CDF sampling."""
    if domain <= 1:
        return np.zeros(size, dtype=np.int64)
    ranks = np.arange(1, domain + 1, dtype=np.float64)
    weights = ranks ** (-skew)
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    uniform = rng.random(size)
    codes = np.searchsorted(cdf, uniform, side="left")
    # Shuffle the rank->code mapping so the heavy hitters are not always
    # the smallest codes (more realistic, and exercises MCV logic).
    permutation = rng.permutation(domain)
    return permutation[codes].astype(np.int64)


def _attribute_column(rng: np.random.Generator, name: str,
                      num_rows: int) -> tuple[Column, np.ndarray]:
    """Generate one random attribute column definition + values."""
    if rng.random() < CATEGORICAL_FRACTION:
        domain = int(rng.integers(2, 200))
        skew = float(rng.uniform(0.0, MAX_ZIPF_PARAMETER))
        if skew < 0.2:
            values = rng.integers(0, domain, size=num_rows)
        else:
            values = _zipf_codes(rng, num_rows, domain, skew)
        return Column(name, DataType.CATEGORICAL, num_categories=domain), values

    if rng.random() < 0.3:
        # Float column: log-normal-ish measure (e.g. amounts, ratings).
        mean = rng.uniform(0.0, 5.0)
        sigma = rng.uniform(0.3, 1.2)
        values = rng.lognormal(mean, sigma, size=num_rows)
        return Column(name, DataType.FLOAT), values

    # Integer column: uniform range or zipf-over-range.
    low = int(rng.integers(0, 1000))
    span = int(rng.integers(10, 100_000))
    if rng.random() < 0.5:
        values = rng.integers(low, low + span, size=num_rows)
    else:
        skew = float(rng.uniform(0.5, MAX_ZIPF_PARAMETER))
        values = low + _zipf_codes(rng, num_rows, min(span, 10_000), skew)
    return Column(name, DataType.INTEGER), values.astype(np.int64)


def _correlate(rng: np.random.Generator, source: np.ndarray,
               target_column: Column, num_rows: int) -> np.ndarray:
    """Derive values for ``target_column`` that depend on ``source``.

    A noisy monotone mapping: conjunctive predicates on the pair are then
    far from independent, which is what defeats histogram estimators.
    """
    order = np.argsort(source)
    ranks = np.empty(num_rows, dtype=order.dtype)
    ranks[order] = np.arange(num_rows)  # the inverse permutation of order
    normalized = ranks / max(num_rows - 1, 1)
    noise = rng.normal(0.0, 0.15, size=num_rows)
    mixed = np.clip(normalized + noise, 0.0, 1.0)
    if target_column.data_type is DataType.CATEGORICAL:
        domain = target_column.num_categories
        return np.minimum((mixed * domain).astype(np.int64), domain - 1)
    if target_column.data_type is DataType.FLOAT:
        return mixed * 1000.0
    return (mixed * 10_000).astype(np.int64)


def generate_database(spec: SyntheticDatabaseSpec) -> Database:
    """Generate one synthetic database from a spec, analyzed."""
    rng = np.random.default_rng(spec.seed)

    # ------------------------------------------------------------------
    # 1. Topology: table 0 is the root dimension; every later table picks
    #    a parent among the earlier ones -> a random tree join graph.
    # ------------------------------------------------------------------
    parents: dict[int, int] = {}
    is_star = rng.random() < STAR_PROBABILITY
    for table_index in range(1, spec.num_tables):
        parents[table_index] = 0 if is_star else int(rng.integers(0, table_index))

    # Row counts: children tend to be larger than their parents
    # (fact vs dimension), drawn log-uniformly.
    log_low, log_high = np.log(spec.min_rows), np.log(spec.max_rows)
    row_counts: list[int] = []
    for table_index in range(spec.num_tables):
        base = float(np.exp(rng.uniform(log_low, log_high)))
        if table_index in parents:
            parent_rows = row_counts[parents[table_index]]
            base = max(base, parent_rows * float(rng.uniform(1.0, 4.0)))
        row_counts.append(int(min(base, spec.max_rows * 4)))

    # ------------------------------------------------------------------
    # 2. Schemas + data per table.
    # ------------------------------------------------------------------
    tables: list[Table] = []
    foreign_keys: list[ForeignKey] = []
    all_data: dict[str, TableData] = {}

    for table_index in range(spec.num_tables):
        table_name = f"t{table_index}"
        num_rows = row_counts[table_index]
        columns: list[Column] = [Column("id", DataType.INTEGER)]
        values: dict[str, np.ndarray] = {"id": np.arange(num_rows, dtype=np.int64)}

        if table_index in parents:
            parent_index = parents[table_index]
            parent_name = f"t{parent_index}"
            fk_column = f"{parent_name}_id"
            columns.append(Column(fk_column, DataType.INTEGER))
            parent_rows = row_counts[parent_index]
            if rng.random() < FK_SKEW_PROBABILITY:
                skew = float(rng.uniform(0.4, MAX_ZIPF_PARAMETER))
                values[fk_column] = _zipf_codes(rng, num_rows, parent_rows, skew)
            else:
                values[fk_column] = rng.integers(0, parent_rows, size=num_rows)
            foreign_keys.append(ForeignKey(table_name, fk_column, parent_name, "id"))

        num_attributes = int(rng.integers(MIN_ATTRIBUTE_COLUMNS,
                                          MAX_ATTRIBUTE_COLUMNS + 1))
        attribute_columns: list[tuple[Column, np.ndarray]] = []
        for attr_index in range(num_attributes):
            column, column_values = _attribute_column(
                rng, f"c{attr_index}", num_rows)
            attribute_columns.append((column, column_values))

        # Correlate some adjacent attribute pairs.
        for first in range(len(attribute_columns) - 1):
            if rng.random() < CORRELATION_PROBABILITY:
                source_column, source_values = attribute_columns[first]
                target_column, _ = attribute_columns[first + 1]
                attribute_columns[first + 1] = (
                    target_column,
                    _correlate(rng, source_values, target_column, num_rows),
                )

        null_masks: dict[str, np.ndarray] = {}
        for column, column_values in attribute_columns:
            columns.append(column)
            values[column.name] = column_values
            null_fraction = float(rng.uniform(0.0, NULL_FRACTION_MAX))
            if null_fraction > 0.005:
                null_masks[column.name] = rng.random(num_rows) < null_fraction

        table = Table(name=table_name, columns=tuple(columns), primary_key="id")
        tables.append(table)
        all_data[table_name] = TableData(table=table, columns=values,
                                         null_masks=null_masks)

    schema = Schema.from_tables(spec.name, tables, foreign_keys)
    database = Database.from_tables(spec.name, schema, all_data)
    for table in tables:  # primary key indexes, as Postgres would have
        database.create_index(f"{table.name}_pkey", table.name, "id", unique=True)
    database.analyze()
    return database


def generate_training_database_specs(count: int, base_seed: int = 0,
                                     min_rows: int = 2_000,
                                     max_rows: int = 30_000
                                     ) -> list[SyntheticDatabaseSpec]:
    """Specs of the training fleet (the paper uses 19 databases),
    without materializing any data.

    Databases deliberately differ in table count and size so the model
    sees a spread of schema shapes.  Specs are cheap, picklable recipes:
    ``generate_database(spec)`` hydrates the actual :class:`Database` on
    demand (possibly in a worker process).  Spec ``i`` depends only on
    ``base_seed`` and the
    draws for specs ``0..i``, so the first ``k`` specs of a fleet of
    ``n > k`` are identical to a fleet of ``k`` — the prefix property
    the per-shard corpus cache relies on when a fleet grows.
    """
    if count <= 0:
        raise SchemaError(f"count must be positive, got {count}")
    seed_rng = np.random.default_rng(base_seed)
    specs = []
    for database_index in range(count):
        specs.append(SyntheticDatabaseSpec(
            name=f"train_db_{database_index}",
            seed=int(seed_rng.integers(0, 2**31 - 1)),
            num_tables=int(seed_rng.integers(3, 8)),
            min_rows=min_rows,
            max_rows=max_rows,
        ))
    return specs
