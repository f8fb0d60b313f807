"""Exception hierarchy for the ``repro`` library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch library failures with a single except clause.
"""

__all__ = [
    "ReproError",
    "SchemaError",
    "CatalogError",
    "QueryError",
    "ParseError",
    "PlanError",
    "OptimizerError",
    "ExecutionError",
    "FeaturizationError",
    "ModelError",
    "ServeError",
    "Overloaded",
    "WorkloadError",
    "ExperimentError",
]


class ReproError(Exception):
    """Base class for all library errors."""


class SchemaError(ReproError):
    """Invalid schema definition (duplicate names, dangling FKs, ...)."""


class CatalogError(ReproError):
    """Statistics are missing or inconsistent with the data."""


class QueryError(ReproError):
    """A query references unknown tables/columns or is semantically invalid."""


class ParseError(QueryError):
    """SQL text could not be parsed."""


class PlanError(ReproError):
    """A physical plan is structurally invalid."""


class OptimizerError(ReproError):
    """The planner could not produce a plan for a query."""


class PlannerError(OptimizerError):
    """The planner was handed a query it cannot plan, e.g. one whose
    predicate names an alias the query does not (the rewrite phase
    checks this, as callers may rewrite queries nobody validated)."""


class ExecutionError(ReproError):
    """The executor failed to evaluate a plan."""


class FeaturizationError(ReproError):
    """A plan could not be converted into model features."""


class ModelError(ReproError):
    """Model construction, training or inference failed."""


class ServeError(ReproError):
    """The serving tier was misused (stopped server, timed-out wait, ...)."""


class Overloaded(ServeError):
    """Admission control rejected a request: the server's queue is at
    its bound.  Callers should back off and retry — an explicit, fast
    rejection instead of unbounded queueing latency."""


class WorkloadError(ReproError):
    """Workload generation failed (e.g. unsatisfiable constraints)."""


class ExperimentError(ReproError):
    """An experiment driver was misconfigured."""
