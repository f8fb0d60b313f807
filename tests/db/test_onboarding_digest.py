"""One SHA-256 over everything onboarding a database produces: each
generated column's bytes and NULL mask, and each field of its
``ANALYZE`` statistics (floats as their IEEE bytes).

It covers the fleet of ``generate_training_database_specs(4,
base_seed=0, min_rows=1_000, max_rows=20_000)`` (the benchmark's
collection fleet) and ``make_imdb_database(0.05)``.  Statistics feed
every estimate, plan, label and encoding, so a change to the generator
or to ``analyze_table`` that moves one bit of them fails here; the
digest was taken before ``ANALYZE`` was derived from one sort per column
and holds after it.
"""

import hashlib
import struct

import pytest

from repro.db import (
    Database,
    generate_database,
    generate_training_database_specs,
    make_imdb_database,
)

pytestmark = pytest.mark.perf

#: Print the current value with ``PYTHONPATH=src python
#: tests/db/test_onboarding_digest.py``.
ONBOARDING_DIGEST = (
    "52ae291f66bbba0f219471da37dc4b72fa4245ff148dd607726aa733380b1625")


def _float(value) -> bytes:
    return b"none" if value is None else struct.pack("<d", value)


def feed_database(digest, database: Database) -> None:
    for table_name in sorted(database.data):
        data = database.data[table_name]
        statistics = database.statistics[table_name]
        digest.update(repr((table_name, statistics.num_rows,
                            statistics.num_pages)).encode())
        for column in data.table.columns:
            values = data.column_values(column.name)
            digest.update(repr((column.name, values.dtype.str)).encode())
            digest.update(values.tobytes())
            digest.update(data.null_mask(column.name).tobytes())
            stats = statistics.columns[column.name]
            digest.update(repr((stats.column_name, stats.num_distinct,
                                len(stats.mcv_values))).encode())
            for value in (stats.null_fraction, stats.min_value,
                          stats.max_value, *stats.mcv_values,
                          *stats.mcv_fractions):
                digest.update(_float(value))
            if stats.histogram is not None:
                digest.update(stats.histogram.bounds.tobytes())


def onboarding_digest() -> str:
    digest = hashlib.sha256()
    specs = generate_training_database_specs(4, base_seed=0, min_rows=1_000,
                                             max_rows=20_000)
    for spec in specs:
        feed_database(digest, generate_database(spec))
    feed_database(digest, make_imdb_database(0.05))
    return digest.hexdigest()


def test_onboarding_is_bit_identical():
    assert onboarding_digest() == ONBOARDING_DIGEST


if __name__ == "__main__":
    print(onboarding_digest())
