"""Vectorized plan executor.

Substitutes for the Postgres executor in the paper's testbed: it runs
every physical plan over the columnar data and reports true per-operator
cardinalities (the "exact cardinalities" input of the zero-shot model)
plus the query result itself.

Execution is organised as per-operator vectorized handlers looked up in
one ``{operator class: handler}`` dict (``Executor._HANDLERS``); each
join handler calls its own kernel from :mod:`repro.engine.join_kernels`,
and scan filters run through :mod:`repro.engine.compiled_filters`.
"""

from repro.engine.executor import BuildSideCache, Executor, execute_plan

__all__ = [
    "BuildSideCache",
    "Executor",
    "execute_plan",
]
