"""Columnar table storage.

Values live in numpy arrays (one per column).  Integer and categorical
columns use ``int64``; floats use ``float64``, with every zero stored as
``+0.0``.  NULLs are represented by a separate boolean mask per column
(True = NULL); predicates never match NULL values, matching SQL
three-valued logic for the operators we support.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.db.schema import Table
from repro.db.types import DataType, pages_for_rows
from repro.errors import SchemaError

__all__ = ["TableData"]


@dataclass
class TableData:
    """The stored rows of one table.

    Parameters
    ----------
    table:
        The schema definition this data conforms to.
    columns:
        Mapping of column name to a numpy array of values.
    null_masks:
        Optional mapping of column name to a boolean numpy array marking
        NULL positions.  Columns without an entry contain no NULLs.
    """

    table: Table
    columns: dict[str, np.ndarray]
    null_masks: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        expected = set(self.table.column_names)
        actual = set(self.columns)
        if expected != actual:
            raise SchemaError(
                f"data for table {self.table.name!r} does not match schema: "
                f"missing={sorted(expected - actual)}, extra={sorted(actual - expected)}"
            )
        lengths = {name: len(values) for name, values in self.columns.items()}
        if len(set(lengths.values())) > 1:
            raise SchemaError(
                f"columns of table {self.table.name!r} have differing lengths: {lengths}"
            )
        for name, values in self.columns.items():
            column = self.table.column(name)
            if column.data_type is DataType.FLOAT:
                # Adding +0.0 turns -0.0 into +0.0 and keeps every other
                # value's bits: the two zeros compare equal, so a stored
                # -0.0 would give a statistic or group key whose sign
                # follows where a sort put the zeros.
                self.columns[name] = np.add(values, 0.0, dtype=np.float64)
            else:
                if values.dtype != np.int64:
                    self.columns[name] = values.astype(np.int64)
        for name, mask in self.null_masks.items():
            if name not in self.columns:
                raise SchemaError(f"null mask for unknown column {name!r}")
            if len(mask) != self.num_rows:
                raise SchemaError(f"null mask length mismatch for column {name!r}")
            if mask.dtype != np.bool_:
                self.null_masks[name] = mask.astype(np.bool_)

    @property
    def num_rows(self) -> int:
        if not self.columns:
            return 0
        return len(next(iter(self.columns.values())))

    @property
    def num_pages(self) -> int:
        """Heap pages occupied by this table."""
        return pages_for_rows(self.num_rows, self.table.tuple_width_bytes)

    def column_values(self, name: str) -> np.ndarray:
        try:
            return self.columns[name]
        except KeyError:
            raise SchemaError(
                f"no column {name!r} in table {self.table.name!r}"
            ) from None

    def null_mask(self, name: str) -> np.ndarray:
        """Boolean NULL mask for a column (all-False if none stored)."""
        mask = self.null_masks.get(name)
        if mask is None:
            return np.zeros(self.num_rows, dtype=np.bool_)
        return mask
