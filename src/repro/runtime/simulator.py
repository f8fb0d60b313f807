"""Per-operator runtime model.

``RuntimeSimulator.simulate(plan)`` charges every plan node a runtime
derived from its *actual* cardinalities (the plan must have been
executed), table/index size metadata and the hidden
:class:`~repro.runtime.system.SystemParameters`, then adds multiplicative
log-normal noise — the measurement variance a real testbed shows.

The functional forms are intentionally richer than the optimizer's cost
model (buffer-cache behaviour, CPU-cache thrashing, spill passes), so a
linear rescaling of optimizer costs cannot explain runtimes perfectly —
matching the paper's observation about the Scaled-Optimizer-Cost
baseline.

Each operator's cost model mirrors the algorithm the executor's kernel
actually runs (see :mod:`repro.engine.join_kernels`): hash joins pay a
per-probe slot lookup that degrades with build-side size (CPU-cache
thrashing), nested loops pay the full blockwise comparison matrix.  The
models are looked up in one ``{operator class: model}`` dict
(``RuntimeSimulator._MODELS``, indexed by ``type(node)``), the mirror
of the executor's ``Executor._HANDLERS``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.db.database import Database
from repro.errors import ExecutionError, PlanError
from repro.plans.operators import (
    HashAggregate,
    HashBuild,
    HashJoin,
    IndexScan,
    NestedLoopJoin,
    PlainAggregate,
    PlanNode,
    SeqScan,
)
from repro.plans.plan import PhysicalPlan, walk_plan
from repro.runtime.system import SystemParameters

__all__ = ["QueryRuntime", "RuntimeSimulator"]


@dataclass
class QueryRuntime:
    """Simulated execution trace of one query.

    Besides the runtime, the trace records *resource consumption*
    (paper §4.3: zero-shot models should predict "not only the runtime
    but also other aspects such as resource consumption"):

    * ``memory_peak_bytes`` — the largest working-memory allocation of
      any stateful operator (hash tables, group tables),
    * ``io_pages`` — total pages read from disk (after the buffer cache).
    """

    total_seconds: float
    node_seconds: dict[int, float] = field(default_factory=dict)
    noise_factor: float = 1.0
    memory_peak_bytes: float = 0.0
    io_pages: float = 0.0

    def seconds_for(self, node: PlanNode) -> float:
        return self.node_seconds[id(node)]


class RuntimeSimulator:
    """Simulates runtimes of executed plans on one database + system.

    Per-operator models live in the class-level ``_MODELS`` dict
    (operator class → model, indexed by the node's exact class), the
    cost-side mirror of the executor's ``_HANDLERS``.
    """

    def __init__(self, database: Database,
                 system: SystemParameters | None = None,
                 noise_sigma: float = 0.06,
                 rng: np.random.Generator | None = None):
        # NaN would pass a plain ``< 0`` and then switch the noise off.
        if not (np.isfinite(noise_sigma) and noise_sigma >= 0):
            raise ValueError(
                f"noise_sigma must be non-negative and finite, got "
                f"{noise_sigma}")
        self.database = database
        self.system = system or SystemParameters()
        self.noise_sigma = noise_sigma
        self.rng = rng or np.random.default_rng(0)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def simulate(self, plan: PhysicalPlan) -> QueryRuntime:
        """Total runtime of an executed plan (with measurement noise)."""
        plan.require_executed()
        node_seconds: dict[int, float] = {}
        total = self.system.query_overhead_s
        memory_peak = 0.0
        io_pages = 0.0
        for node in walk_plan(plan.root):
            seconds = self._node_seconds(node)
            node_seconds[id(node)] = seconds
            total += seconds
            memory_peak = max(memory_peak, self._node_memory_bytes(node))
            io_pages += self._node_io_pages(node)
        if self.noise_sigma > 0:
            noise = float(np.exp(self.rng.normal(0.0, self.noise_sigma)))
        else:
            noise = 1.0
        return QueryRuntime(total_seconds=total * noise,
                            node_seconds=node_seconds, noise_factor=noise,
                            memory_peak_bytes=memory_peak, io_pages=io_pages)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _node_seconds(self, node: PlanNode) -> float:
        return self._MODELS[type(node)](self, node)

    # ------------------------------------------------------------------
    # Resource accounting (§4.3: predict resource consumption too)
    # ------------------------------------------------------------------
    def _node_memory_bytes(self, node: PlanNode) -> float:
        """Working memory held by a stateful operator."""
        s = self.system
        per_tuple_overhead = 48.0  # hash entry header
        if isinstance(node, HashBuild):
            rows = min(self._actual(node), s.work_mem_tuples)
            return rows * (node.est_width + per_tuple_overhead)
        if isinstance(node, HashAggregate):
            # The group table is a stateful allocation like a hash build:
            # past work_mem it spills (see _node_io_pages) instead of
            # growing without bound.
            groups = min(self._actual(node), s.work_mem_tuples)
            return groups * (node.est_width + per_tuple_overhead)
        return 0.0

    def _node_io_pages(self, node: PlanNode) -> float:
        """Pages read from disk (post buffer cache) plus spill traffic."""
        s = self.system
        if isinstance(node, SeqScan):
            pages = self._table_pages(node.table.table_name)
            return pages * s.miss_fraction(pages)
        if isinstance(node, IndexScan):
            pages = self._table_pages(node.table.table_name)
            miss = s.miss_fraction(pages)
            fetched = self._actual(node)
            if pages > 0 and fetched > 0:
                distinct = pages * (1.0 - math.exp(-fetched / pages))
            else:
                distinct = 0.0
            return distinct * miss
        if isinstance(node, (HashBuild, HashAggregate)):
            # Stateful operators spill once their state exceeds working
            # memory; for an aggregate the state is the *group* table
            # (its output rows), for a build the buffered input.
            rows = self._actual(node)
            if rows > s.work_mem_tuples:
                from repro.db.types import PAGE_SIZE_BYTES
                spilled_bytes = rows * (node.est_width + 24.0)
                return 2.0 * spilled_bytes / PAGE_SIZE_BYTES  # write + read
        return 0.0

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _table_pages(self, table_name: str) -> float:
        return float(self.database.table_data(table_name).num_pages)

    def _table_rows(self, table_name: str) -> float:
        return float(self.database.table_data(table_name).num_rows)

    @staticmethod
    def _actual(node: PlanNode) -> float:
        if node.actual_rows is None:
            raise PlanError(
                f"{node.operator_name} lacks actual cardinality; "
                "the simulator needs an executed plan"
            )
        return float(node.actual_rows)

    # ------------------------------------------------------------------
    # Operator models
    # ------------------------------------------------------------------
    def _seq_scan(self, node: SeqScan) -> float:
        s = self.system
        pages = self._table_pages(node.table.table_name)
        rows = self._table_rows(node.table.table_name)
        miss = s.miss_fraction(pages)
        io = pages * s.seq_page_read_s * miss
        cpu = rows * (s.cpu_tuple_s + len(node.filters) * s.cpu_predicate_s)
        out = self._actual(node) * s.cpu_tuple_s
        return io + cpu + out

    def _index_scan(self, node: IndexScan, loops: float = 1.0) -> float:
        s = self.system
        index = self.database.indexes.get(node.index_name)
        if index is None:
            raise ExecutionError(f"no index named {node.index_name!r}")
        table_name = node.table.table_name
        pages = self._table_pages(table_name)
        miss = s.miss_fraction(pages)
        matched = self._actual(node)
        fetched = matched  # tuples fetched from the heap via the index
        descend = loops * index.height * s.random_page_read_s * \
            max(miss, 0.02)
        # Distinct heap pages touched (Yao's approximation).
        if pages > 0 and fetched > 0:
            distinct_pages = pages * (1.0 - math.exp(-fetched / pages))
        else:
            distinct_pages = 0.0
        heap_io = distinct_pages * s.random_page_read_s * miss
        index_cpu = fetched * s.cpu_index_tuple_s
        residual_cpu = fetched * len(node.residual_filters) * s.cpu_predicate_s
        out_cpu = matched * s.cpu_tuple_s
        return descend + heap_io + index_cpu + residual_cpu + out_cpu

    def _hash_build(self, node: HashBuild) -> float:
        """Linear grouping of the build side (+ spill past work_mem)."""
        s = self.system
        rows = self._actual(node)
        build = rows * s.hash_build_s
        spill = 0.0
        if rows > s.work_mem_tuples:
            spill = rows * s.spill_tuple_s
        return build + spill

    def _hash_join(self, node: HashJoin) -> float:
        """Per-probe slot lookup; degrades as the build side outgrows
        CPU caches (``probe_cost``), matching the join-table kernel."""
        s = self.system
        build_rows = self._actual(node.children[1])
        probe_rows = self._actual(node.probe_child)
        out_rows = self._actual(node)
        probe = probe_rows * s.probe_cost(build_rows)
        emit = out_rows * s.cpu_tuple_s
        spill = 0.0
        if build_rows > s.work_mem_tuples:
            spill = probe_rows * s.spill_tuple_s  # grace join re-read
        return probe + emit + spill

    def _nested_loop(self, node: NestedLoopJoin) -> float:
        """Full outer×inner comparison matrix (blockwise in the kernel,
        but the comparison count is the same)."""
        s = self.system
        outer_rows = self._actual(node.children[0])
        out_rows = self._actual(node)
        if node.is_index_nested_loop:
            # Inner index scan is charged separately with per-loop descents.
            inner: IndexScan = node.children[1]  # type: ignore[assignment]
            inner_cost = self._index_scan(inner, loops=max(outer_rows, 1.0))
            emit = out_rows * s.cpu_tuple_s
            # The walk will also visit the inner IndexScan; to avoid double
            # charging we account for the difference here and give the
            # inner node its single-loop cost during the walk.
            single = self._index_scan(inner, loops=1.0)
            return inner_cost - single + emit
        inner_rows = self._actual(node.children[1])
        compare = outer_rows * inner_rows * s.nested_loop_compare_s
        emit = out_rows * s.cpu_tuple_s
        return compare + emit

    def _aggregate(self, node: HashAggregate | PlainAggregate,
                   grouped: bool) -> float:
        s = self.system
        input_rows = self._actual(node.children[0])
        out_rows = self._actual(node)
        num_aggregates = max(len(node.aggregates), 1)
        update = input_rows * num_aggregates * s.aggregate_update_s
        if grouped:
            update += input_rows * s.hash_probe_s  # group lookup
        emit = out_rows * s.cpu_tuple_s
        spill = 0.0
        if grouped and out_rows > s.work_mem_tuples:
            # Group table exceeds working memory: spill it, mirroring
            # the hash build (large group-bys used to spill for free).
            spill = out_rows * s.spill_tuple_s
        return update + emit + spill

    def _hash_aggregate_model(self, node: HashAggregate) -> float:
        return self._aggregate(node, grouped=True)

    def _plain_aggregate_model(self, node: PlainAggregate) -> float:
        return self._aggregate(node, grouped=False)

    #: operator class → cost model, looked up by ``type(node)``.
    _MODELS = {
        SeqScan: _seq_scan,
        IndexScan: _index_scan,
        HashBuild: _hash_build,
        HashJoin: _hash_join,
        NestedLoopJoin: _nested_loop,
        HashAggregate: _hash_aggregate_model,
        PlainAggregate: _plain_aggregate_model,
    }
