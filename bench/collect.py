"""``collect_corpus`` and ``collect_rewrite``: training-data collection.

Closed loop, one client.  An op is one SQL text turned into a labelled
record: ``parse_query`` then ``WorkloadRunner.run_query`` (plan, execute,
simulate).  The two workloads run the identical query stream; the second
plans with ``PlannerOptions(enable_rewrites=True)``, so planning costs
more and execution less.  A rewrite or join-order gain that taxes the
default path, or the reverse, shows as opposite moves on the two.

A *pass* runs every query of the pool once, per database, with a fresh
runner (so the build-side and filter caches start empty and every pass
is the same work).  Passes repeat until ``--seconds`` is used up.  A
third of one database's queries is one timed *section*, about a fifth of
a second; the machine's slowdown is read between sections
(``bench.calibrate``).
"""

from __future__ import annotations

import math
import time
import traceback
from dataclasses import dataclass

import numpy as np

from bench import stats
from bench.core import (CORPUS_SEED, RunArgs, RunResult, Speedometer,
                        another_repeat, finish, repeat_setup, trace_path)
from bench.spans import Tracer

__all__ = ["run"]

#: No single op may take more than this share of a pass, or the pass
#: time is that op's time (reported as a warning, never as a failure).
MAX_OP_SHARE = 0.05
#: Ops of one database in one timed section of the measured path.  The
#: machine's speed moves within a second; with a database's 75 ops in one
#: section of 0.5-0.7 s, ten seeds of ``collect_rewrite`` spread 18 % on the
#: p95 through a slow spell.  Alternated in one process, passes of
#: 25-op sections gave half the range of passes of 75-op ones on all three
#: time metrics, at a tenth more time for the kernel.
SECTION_OPS = 25


@dataclass
class Inputs:
    databases: list
    #: one list of SQL texts per database: all the program receives.
    streams: list[list[str]]
    hydrate_seconds: list[float]


def build_inputs(sizes: dict) -> Inputs:
    from repro.db import generate_database, generate_training_database_specs
    from repro.sql import query_to_sql
    from repro.workload.generator import WorkloadSpec, generate_workload

    specs = generate_training_database_specs(
        sizes["databases"], base_seed=CORPUS_SEED,
        min_rows=sizes["min_rows"], max_rows=sizes["max_rows"])
    databases, streams, hydrate_seconds = [], [], []
    for index, spec in enumerate(specs):
        start = time.perf_counter()
        database = generate_database(spec)
        hydrate_seconds.append(time.perf_counter() - start)
        queries = generate_workload(database, WorkloadSpec(
            num_queries=sizes["queries_per_database"],
            seed=CORPUS_SEED * 1_000 + index))
        databases.append(database)
        streams.append([query_to_sql(query) for query in queries])
    return Inputs(databases, streams, hydrate_seconds)


# ----------------------------------------------------------------------
# Correctness: each planner path is the other's oracle
# ----------------------------------------------------------------------
def same_aggregates(left, right) -> bool:
    """Final aggregate outputs of two equivalent plans.

    Grouped aggregation emits groups in sorted key order on both sides,
    so rows align positionally.  SUM/AVG fold rows in plan order and may
    differ in the last ulps between plans; everything else is exact.
    """
    if sorted(left.columns) != sorted(right.columns):
        return False
    for key, a in left.columns.items():
        a, b = np.asarray(a), np.asarray(right.columns[key])
        if a.shape != b.shape:
            return False
        if a.dtype.kind in "iub" and b.dtype.kind in "iub":
            if not np.array_equal(a, b):
                return False
        elif not np.allclose(a.astype(float), b.astype(float),
                             rtol=1e-9, atol=1e-12, equal_nan=True):
            return False
    return True


def verify(inputs: Inputs) -> tuple[list[list[int]], set[tuple[int, int]]]:
    """Execute every query with rewrites off and on; untimed.

    Returns the expected output row count per query and the set of
    ``(database, query)`` whose two results differ.  Doubles as the
    warm-up: statistics, compiled kernels and the allocator are hot
    before the first timed pass.
    """
    from repro.engine import Executor
    from repro.optimizer.planner import Planner, PlannerOptions
    from repro.sql import parse_query

    expected_rows: list[list[int]] = []
    mismatches: set[tuple[int, int]] = set()
    for d, (database, texts) in enumerate(zip(inputs.databases,
                                              inputs.streams)):
        plain = Planner(database, PlannerOptions())
        rewriting = Planner(database, PlannerOptions(enable_rewrites=True))
        executor = Executor(database)
        rows = []
        for i, text in enumerate(texts):
            query = parse_query(text)
            off = executor.execute(plain.plan(query))
            on = executor.execute(rewriting.plan(query))
            if not same_aggregates(off.relation, on.relation):
                mismatches.add((d, i))
            rows.append(off.root_rows)
        expected_rows.append(rows)
    return expected_rows, mismatches


def record_ok(record, expected_root_rows: int) -> bool:
    from repro.plans.plan import walk_plan
    cardinalities = record.operator_cardinalities
    return (math.isfinite(record.runtime_seconds)
            and record.runtime_seconds > 0.0
            and len(cardinalities) == sum(1 for _ in walk_plan(record.plan.root))
            and cardinalities[0] == expected_root_rows)


def corpus_qerror(records) -> float:
    """Median q-error of the paper's scaled-optimizer-cost baseline on the
    collected corpus: one linear cost -> runtime fit per database, judged
    against the simulated runtime labels.  It moves when either the plans
    and their costs or the labels change, which is what "faster but
    different" would look like for a collection run."""
    from repro.models import ScaledOptimizerCost, q_error

    by_database: dict[int, list] = {}
    for d, _, record in records:
        by_database.setdefault(d, []).append(record)
    errors = []
    for group in by_database.values():
        costs = np.array([r.optimizer_cost for r in group])
        runtimes = np.array([r.runtime_seconds for r in group])
        predicted = ScaledOptimizerCost().fit(costs, runtimes) \
            .predict_runtime(costs)
        errors.append(q_error(predicted, runtimes))
    return float(np.median(np.concatenate(errors)))


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------
@dataclass
class PassResult:
    #: seconds of the pass's sections, as measured and at reference speed.
    wall: float
    reference_wall: float
    #: seconds per op at reference speed, in pass order; NaN: raised.
    latencies: np.ndarray
    records: list                 # (database, query, record)
    raised: list[tuple[int, int]]
    slowdowns: list[float]        # one per section
    first_traceback: str | None = None


def new_pass(inputs: Inputs) -> PassResult:
    ops = sum(len(texts) for texts in inputs.streams)
    return PassResult(0.0, 0.0, np.full(ops, np.nan), [], [], [])


def close_section(result: PassResult, first_op: int, seconds: float,
                  slowdown: float) -> None:
    result.wall += seconds
    result.reference_wall += seconds / slowdown
    result.latencies[first_op:] /= slowdown
    result.slowdowns.append(slowdown)


def planner_options(workload: str):
    from repro.optimizer.planner import PlannerOptions
    return PlannerOptions(enable_rewrites=(workload == "collect_rewrite"))


def plain_pass(inputs: Inputs, order: np.ndarray, options,
               speed: Speedometer) -> PassResult:
    """The measured path: the public ``run_query`` and nothing else, one
    database after the other in ``order``."""
    from repro.sql import parse_query
    from repro.workload import WorkloadRunner

    result = new_pass(inputs)
    clock = time.perf_counter
    op = 0
    speed.lap()
    for d in map(int, order):
        database, texts = inputs.databases[d], inputs.streams[d]
        first_op = op
        begin = clock()
        runner = WorkloadRunner(database, planner_options=options,
                                seed=CORPUS_SEED)
        for i, text in enumerate(texts):
            if i and i % SECTION_OPS == 0:
                close_section(result, first_op, clock() - begin, speed.lap())
                first_op = op
                begin = clock()
            start = clock()
            try:
                record = runner.run_query(parse_query(text))
            except Exception:  # an op that raises is a failed op
                result.raised.append((d, i))
                result.first_traceback = (result.first_traceback
                                          or traceback.format_exc())
            else:
                result.latencies[op] = clock() - start
                result.records.append((d, i, record))
            op += 1
        close_section(result, first_op, clock() - begin, speed.lap())
    return result


def traced_pass(inputs: Inputs, order: np.ndarray, options,
                speed: Speedometer, tracer: Tracer
                ) -> tuple[PassResult, dict]:
    """The same work with the harness driving the decomposed calls.

    Mirrors ``WorkloadRunner.run_query`` step for step (same planner,
    build-side cache size, simulator noise stream and record), with a
    span around each call into a layer.
    """
    from repro.engine import BuildSideCache, Executor
    from repro.optimizer.planner import Planner
    from repro.plans.plan import walk_plan
    from repro.runtime import RuntimeSimulator
    from repro.sql import parse_query
    from repro.workload.runner import ExecutedQueryRecord

    result = new_pass(inputs)
    counts = {"build_hits": 0, "build_misses": 0, "filter_hits": 0,
              "filter_misses": 0, "joins": {}}
    clock = time.perf_counter
    op = 0
    speed.lap()
    for d in map(int, order):
        database, texts = inputs.databases[d], inputs.streams[d]
        first_op = op
        begin = clock()
        planner = Planner(database, options)
        build_cache = BuildSideCache(64)
        executor = Executor(database, build_cache=build_cache)
        simulator = RuntimeSimulator(database, noise_sigma=0.06,
                                     rng=np.random.default_rng(CORPUS_SEED))
        for i, text in enumerate(texts):
            request = (d, i)
            start = clock()
            with tracer.span("workload.run_query", request):
                with tracer.span("sql.parse", request):
                    query = parse_query(text)
                with tracer.span("optimizer.plan", request):
                    plan = planner.plan(query)
                with tracer.span("engine.execute", request):
                    executor.execute(plan)
                with tracer.span("runtime.simulate", request):
                    runtime = simulator.simulate(plan)
                record = ExecutedQueryRecord(
                    query=query, plan=plan,
                    runtime_seconds=runtime.total_seconds,
                    database_name=database.name,
                    memory_peak_bytes=runtime.memory_peak_bytes,
                    io_pages=runtime.io_pages,
                    operator_cardinalities=tuple(
                        float(node.actual_rows)
                        for node in walk_plan(plan.root)),
                )
            result.latencies[op] = clock() - start
            result.records.append((d, i, record))
            counts["joins"][request] = len(query.joins)
            op += 1
        close_section(result, first_op, clock() - begin, speed.lap())
        counts["build_hits"] += build_cache.hits
        counts["build_misses"] += build_cache.misses
        counts["filter_hits"] += executor.filter_cache.hits
        counts["filter_misses"] += executor.filter_cache.misses
    return result, counts


def failed_ops(passed: PassResult, expected_rows, mismatches) -> int:
    failed = len(passed.raised)
    for d, i, record in passed.records:
        if (d, i) in mismatches or not record_ok(record, expected_rows[d][i]):
            failed += 1
    return failed


# ----------------------------------------------------------------------
def run(args: RunArgs) -> RunResult:
    sizes = args.sizes["collect"]
    speed = Speedometer()
    inputs, setup_seconds = repeat_setup(
        lambda: build_inputs(sizes), sizes["setup_repeats"], speed)
    expected_rows, mismatches = verify(inputs)
    options = planner_options(args.workload)
    # The seed draws the order of the databases and nothing inside one:
    # a runner's noise stream follows its queries' order, and the labels,
    # and so ``qerror_median``, are to read the same on every seed.
    order = np.random.default_rng(args.seed).permutation(
        len(inputs.databases))
    ops_per_pass = sum(len(texts) for texts in inputs.streams)

    if args.trace:
        result = run_traced(args, inputs, order, options, expected_rows,
                            mismatches, speed)
    else:
        passes: list[PassResult] = []
        elapsed: list[float] = []
        failed = 0
        began = time.perf_counter()
        while another_repeat(args, began, elapsed):
            start = time.perf_counter()
            passed = plain_pass(inputs, order, options, speed)
            elapsed.append(time.perf_counter() - start)
            failed += failed_ops(passed, expected_rows, mismatches)
            if passes:
                # Records hold plans and queries; keeping every pass's
                # would make peak_rss_mb count the passes.
                passed.records = []
            passes.append(passed)
        latencies = [p.latencies for p in passes]
        repeats = {"throughput_ops_s": [
            (ops_per_pass - len(p.raised)) / p.reference_wall
            for p in passes]}
        repeats.update(stats.latency_repeats(latencies))
        metrics = {
            "throughput_ops_s": stats.middle(repeats["throughput_ops_s"],
                                             "higher"),
            "qerror_median": corpus_qerror(passes[0].records)}
        metrics.update(stats.latency_quantiles(latencies))
        result = RunResult(
            attempted=ops_per_pass * len(passes), failed=failed,
            metrics=metrics, repeats=repeats,
            slowdowns=[s for p in passes for s in p.slowdowns],
            context={"passes": len(passes), "ops_per_pass": ops_per_pass})
        for p in passes:
            if p.first_traceback:
                result.warnings.append(p.first_traceback)
                break
        worst = np.nanmax(np.nanmedian(latencies, axis=0)) \
            / stats.median([p.reference_wall for p in passes])
        if worst > MAX_OP_SHARE and args.scale == "full":
            result.warnings.append(
                f"one op took {worst:.1%} of a pass (limit "
                f"{MAX_OP_SHARE:.0%}): pass time follows that op")
    result.context["hydrate_seconds"] = inputs.hydrate_seconds
    return finish(args, result, setup_seconds)


def run_traced(args: RunArgs, inputs: Inputs, order, options, expected_rows,
               mismatches, speed: Speedometer) -> RunResult:
    """Alternate plain and traced passes; layer metrics come from the
    spans, the overhead from the two sets of pass times."""
    from repro.optimizer.rewrite import RewritePlanner
    from repro.plans.plan import walk_plan
    from repro.sql import parse_query

    tracer = Tracer()
    plain_walls, traced, elapsed = [], [], []
    counts_total: dict = {}
    began = time.perf_counter()
    while another_repeat(args, began, elapsed):
        start = time.perf_counter()
        plain_walls.append(
            plain_pass(inputs, order, options, speed).reference_wall)
        passed, counts = traced_pass(inputs, order, options, speed, tracer)
        elapsed.append(time.perf_counter() - start)
        traced.append(passed)
        joins = counts.pop("joins")
        for name, value in counts.items():
            counts_total[name] = counts_total.get(name, 0) + value

    traced_wall = sum(p.wall for p in traced)
    self_by_name = tracer.self_time_by_name()

    def busy(name: str) -> float:
        return sum(self_by_name.get(name, ())) / traced_wall

    def ms(values) -> float:
        return stats.median(values) * 1e3 if len(values) else 0.0

    plan_by_request: dict = {}
    for _, name, start, end, _, request in tracer.spans:
        if name == "optimizer.plan":
            plan_by_request.setdefault(request, []).append(end - start)
    by_joins: dict[str, list[float]] = {}
    for request, durations in plan_by_request.items():
        bucket = f"j{joins[request]}" if joins[request] < 4 else "j4plus"
        by_joins.setdefault(bucket, []).extend(durations)

    first = traced[0]
    node_rows = [sum(float(n.actual_rows) for n in walk_plan(r.plan.root))
                 for p in traced for _, _, r in p.records]
    execute = tracer.durations("engine.execute")
    metrics = {
        "db.hydrate_s_per_database": stats.median(inputs.hydrate_seconds),
        "sql.parse_ms": ms(tracer.durations("sql.parse")),
        "sql.busy_share": busy("sql.parse"),
        "optimizer.plan_ms": ms(tracer.durations("optimizer.plan")),
        "optimizer.busy_share": busy("optimizer.plan"),
        "engine.execute_ms": ms(execute),
        "engine.execute_ms_p95": stats.quantile(execute, 0.95) * 1e3,
        "engine.rows_per_s": sum(node_rows) / sum(execute),
        "engine.intermediate_rows_per_query": sum(node_rows) / len(node_rows),
        "engine.build_cache_hit_rate": _rate(counts_total["build_hits"],
                                             counts_total["build_misses"]),
        "engine.filter_cache_hit_rate": _rate(counts_total["filter_hits"],
                                              counts_total["filter_misses"]),
        "engine.result_mismatches": float(len(mismatches)),
        "engine.busy_share": busy("engine.execute"),
        "runtime.simulate_ms": ms(tracer.durations("runtime.simulate")),
        "runtime.simulated_seconds_total": sum(
            r.runtime_seconds for _, _, r in first.records),
        "runtime.busy_share": busy("runtime.simulate"),
        "workload.record_overhead_ms": ms(
            self_by_name.get("workload.run_query", ())),
        "workload.busy_share": busy("workload.run_query"),
        "trace_overhead_share": stats.median(
            [p.reference_wall for p in traced])
            / stats.median(plain_walls) - 1.0,
    }
    for bucket, durations in by_joins.items():
        metrics[f"optimizer.plan_ms_{bucket}"] = ms(durations)

    if args.workload == "collect_rewrite":
        # RewritePlanner.rewrite alone, outside the traced pass so that
        # the pass's wall time and busy shares stay those of run_query.
        rewrite_ms, rewritten_ms, firings = [], [], []
        for d, (database, texts) in enumerate(zip(inputs.databases,
                                                  inputs.streams)):
            rewriter = RewritePlanner(schema=database.schema)
            for i, text in enumerate(texts):
                query = parse_query(text)
                start = time.perf_counter()
                rewritten = rewriter.rewrite(query)
                elapsed = time.perf_counter() - start
                rewrite_ms.append(elapsed)
                firings.append(len(rewritten.trace.firings))
                rewritten_ms.append(
                    stats.median(plan_by_request[(d, i)]) - elapsed)
        metrics["optimizer.rewrite_ms"] = ms(rewrite_ms)
        metrics["optimizer.plan_rewritten_ms"] = ms(rewritten_ms)
        metrics["optimizer.rule_firings_per_query"] = \
            sum(firings) / len(firings)

    tracer.write_jsonl(trace_path(args))
    failed = sum(failed_ops(p, expected_rows, mismatches) for p in traced)
    return RunResult(
        attempted=sum(len(texts) for texts in inputs.streams) * len(traced),
        failed=failed,
        metrics=metrics,
        slowdowns=[s for p in traced for s in p.slowdowns],
        context={"passes": len(traced), "spans": len(tracer.spans),
                 "trace_file": trace_path(args)},
    )


def _rate(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0
