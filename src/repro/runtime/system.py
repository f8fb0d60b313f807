"""Hidden system parameters of the simulated DBMS server.

These play the role of the physical machine in the paper's testbed.
They are intentionally *not* exposed to any featurization by default;
the zero-shot model must learn their effect from observed
(plan, runtime) pairs.  The hardware-transfer experiments flip that:
:data:`repro.featurize.graph.SYSTEM_FEATURE_FIELDS` exposes the same
coefficients as *transferable* features so one model can learn across
machines (the paper's Section 4.3 idea of predicting runtimes on
unseen hardware).

Machines are named: one ``{name: SystemParameters}`` dict lets fleet
specs, experiment drivers and the hardware what-if advisor refer to the
six configurations by name — ``"default"``, ``"faster-cpu"``,
``"slow-disk"``, … (:func:`get_system_config`,
:func:`available_system_configs`).  Configurations convert to plain
JSON-able dicts (:meth:`SystemParameters.to_dict` /
:meth:`SystemParameters.from_dict`), so a machine description can
travel with a saved model or experiment manifest.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

from repro.errors import ExecutionError

__all__ = [
    "SystemParameters",
    "available_system_configs",
    "get_system_config",
]


@dataclass(frozen=True)
class SystemParameters:
    """Per-"machine" timing coefficients (all in seconds)."""

    # CPU path lengths.  Postgres' interpreted executor spends on the
    # order of a microsecond per tuple per operator, which is what makes
    # small simulated databases produce realistically spread runtimes.
    cpu_tuple_s: float = 1.5e-6          #: per tuple materialization
    cpu_predicate_s: float = 6e-7        #: per predicate evaluation per tuple
    cpu_index_tuple_s: float = 1.2e-6    #: per index entry touched
    hash_build_s: float = 3e-6           #: per tuple inserted into a hash table
    hash_probe_s: float = 1.5e-6         #: per probe into a hash table
    aggregate_update_s: float = 9e-7     #: per aggregate update per tuple
    nested_loop_compare_s: float = 1.5e-7  #: per pair comparison (tight loop)

    # I/O path.
    seq_page_read_s: float = 2e-4        #: sequential 8 KiB page read (cold)
    random_page_read_s: float = 9e-4     #: random 8 KiB page read (cold)

    # Buffer cache: pages resident in memory.  Sized so that dimension
    # tables are hot while large fact tables mostly miss — the regime
    # change real servers show, scaled to this library's table sizes.
    buffer_pool_pages: float = 150.0
    hot_miss_fraction: float = 0.02      #: residual misses on cached tables

    # Working memory: tuples before hash tables spill to disk.
    work_mem_tuples: float = 25_000.0
    spill_tuple_s: float = 5e-6          #: per tuple written+read on spill

    # CPU cache: hash tables larger than this probe ~2x slower.
    cpu_cache_tuples: float = 10_000.0
    cache_thrash_factor: float = 2.5

    # Fixed per-query overhead (parse, plan, executor startup).
    query_overhead_s: float = 1e-3

    def miss_fraction(self, table_pages: float) -> float:
        """Fraction of page reads that go to disk for a table of this size.

        Small tables live in the buffer pool; large ones mostly miss.
        This size-dependent nonlinearity is invisible to the classical
        optimizer cost model (one reason the Scaled-Optimizer-Cost
        baseline underperforms, as in the paper's Figure 3).

        A table with no pages reads nothing, so its miss fraction is
        exactly zero — not ``hot_miss_fraction``, which would charge an
        empty table residual disk misses.
        """
        if table_pages <= 0:
            return 0.0
        cached = min(self.buffer_pool_pages * 0.5, table_pages)
        miss = 1.0 - cached / table_pages
        return float(max(miss, self.hot_miss_fraction))

    def probe_cost(self, build_tuples: float) -> float:
        """Per-probe cost, degraded when the hash table exceeds CPU cache."""
        if build_tuples > self.cpu_cache_tuples:
            return self.hash_probe_s * self.cache_thrash_factor
        return self.hash_probe_s

    # ------------------------------------------------------------------
    # Serialization (plain JSON-able dicts, shipped with experiment
    # manifests and the hardware advisor's recommendations).
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, float]:
        """All coefficients as a plain ``{field: float}`` dict."""
        return {key: float(value) for key, value in asdict(self).items()}

    @classmethod
    def from_dict(cls, payload: dict) -> "SystemParameters":
        """Inverse of :meth:`to_dict`; unknown keys are rejected."""
        known = {f.name for f in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ExecutionError(
                f"unknown system parameter(s): {', '.join(sorted(unknown))}"
            )
        return cls(**{key: float(value) for key, value in payload.items()})

    # ------------------------------------------------------------------
    # Canonical alternative machines (also named in _CONFIGS, below).
    # ------------------------------------------------------------------
    @classmethod
    def faster_cpu(cls) -> "SystemParameters":
        """An alternative machine with ~2x CPU (for hardware what-if)."""
        return cls(
            cpu_tuple_s=7.5e-7, cpu_predicate_s=3e-7, cpu_index_tuple_s=6e-7,
            hash_build_s=1.5e-6, hash_probe_s=7.5e-7,
            aggregate_update_s=4.5e-7, nested_loop_compare_s=7.5e-8,
        )

    @classmethod
    def slow_disk(cls) -> "SystemParameters":
        """An alternative machine with spinning-disk latencies."""
        return cls(seq_page_read_s=4e-4, random_page_read_s=5e-3,
                   buffer_pool_pages=1_000.0)

    @classmethod
    def fast_disk(cls) -> "SystemParameters":
        """An NVMe-class machine: cheap sequential *and* random reads."""
        return cls(seq_page_read_s=8e-5, random_page_read_s=1.5e-4)

    @classmethod
    def big_memory(cls) -> "SystemParameters":
        """A machine with a large buffer pool and working memory."""
        return cls(buffer_pool_pages=1_500.0, work_mem_tuples=150_000.0,
                   cpu_cache_tuples=30_000.0)

    @classmethod
    def mid_range(cls) -> "SystemParameters":
        """A machine strictly *between* the default and the named
        variants on every axis — the canonical unseen-hardware holdout
        of the ``repro-hardware`` experiment (interpolation, not
        extrapolation, as zero-shot transfer requires)."""
        return cls(
            cpu_tuple_s=1.1e-6, cpu_predicate_s=4.4e-7,
            cpu_index_tuple_s=8.8e-7, hash_build_s=2.2e-6,
            hash_probe_s=1.1e-6, aggregate_update_s=6.6e-7,
            nested_loop_compare_s=1.1e-7,
            seq_page_read_s=2.9e-4, random_page_read_s=2.2e-3,
            buffer_pool_pages=420.0, work_mem_tuples=60_000.0,
        )


#: Machine name → configuration: the names fleet specs, experiment
#: drivers and the hardware advisor accept.
_CONFIGS = {
    "default": SystemParameters(),
    "faster-cpu": SystemParameters.faster_cpu(),
    "slow-disk": SystemParameters.slow_disk(),
    "fast-disk": SystemParameters.fast_disk(),
    "big-memory": SystemParameters.big_memory(),
    "mid-range": SystemParameters.mid_range(),
}


def get_system_config(name: str) -> SystemParameters:
    """Look up a machine by name (fleet specs accept these names)."""
    system = _CONFIGS.get(name)
    if system is None:
        raise ExecutionError(
            f"unknown system config {name!r}; available: "
            f"{', '.join(available_system_configs())}")
    return system


def available_system_configs() -> tuple[str, ...]:
    """Names of all machine configurations, sorted."""
    return tuple(sorted(_CONFIGS))
