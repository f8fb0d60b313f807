"""Loading this repo's tables into stdlib ``sqlite3``, the referee of
the ``oracle`` suites (``tests/engine/test_scan_oracle.py``,
``tests/optimizer/test_join_oracle.py``).

Test directories are not packages; ``tests/`` is on ``sys.path`` because
``tests/conftest.py`` lives here, so the suites ``import sqlite_oracle``.
"""

import sqlite3

import numpy as np


def load_table(connection: sqlite3.Connection, database,
               table_name: str) -> None:
    """Copy one table row for row, NULLs as ``None``."""
    data = database.table_data(table_name)
    names = data.table.column_names
    connection.execute(f"CREATE TABLE {table_name} ({', '.join(names)})")
    columns = []
    for name in names:
        values = data.column_values(name).tolist()
        for position in np.flatnonzero(data.null_mask(name)):
            values[position] = None
        columns.append(values)
    connection.executemany(
        f"INSERT INTO {table_name} VALUES ({', '.join('?' * len(names))})",
        zip(*columns))
