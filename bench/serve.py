"""``serve_warm`` and ``serve_cold``: the batched prediction server.

Both put a ``PredictionServer`` (default options, but for the batch timer:
see :func:`reference_server`) over a ``CostModelService`` with default
options (64-sample batches, 512-entry encode cache) around a small
zero-shot model trained in set-up.

* ``serve_warm`` requests come from a fixed pool of physical plans that
  fits in the encode cache and is warmed into it: the model forward, the
  batch merge and the queue do the work.
* ``serve_cold`` requests are SQL texts, each served once: every request
  is a cache miss that parses, plans and featurizes, and the forward is
  negligible.  The cache only inserts: a round's texts fit, and it is
  cleared between rounds.

A run is a few *rounds*; a round is phase A, open loop at a fixed rate,
which gives the latencies, then phase B, saturation, which gives the
throughput.  An op is one answered prediction.  Each round has a server
of its own over the one service, constructed for the machine's speed of
the moment and not touched afterwards (:func:`reference_server`); the
fixed rate is per second of the reference machine (:func:`open_phase`).
"""

from __future__ import annotations

import inspect
import time
from dataclasses import dataclass, field

import numpy as np

from bench import loadgen, stats
from bench.core import (CORPUS_SEED, RunArgs, RunResult, Speedometer,
                        another_repeat, finish, repeat_setup, trace_path)
from bench.spans import Tracer

__all__ = ["run"]

#: Rounds that fit into a run at reference speed; a round is sized from
#: it.  A metric's value is the median over the rounds, so that a burst of
#: interference spoils one round and not the run.  The warm server's
#: phases are a quarter of a second: the machine's speed moves within a
#: second, so the slowdown read at the two ends of a short phase is the
#: slowdown inside it, and a median over twenty rounds is steadier than
#: one over eight.  With eight rounds of 0.6 s phases, ten seeds of one
#: commit spread 15 % on the p50 and 20-29 % on the p95 (the driver
#: refused that); with twenty of 0.25 s, 4 % on both.  The cold server's
#: fixed rate is low (see ``OPEN_SHARE``), so more than three rounds would
#: leave a round's p95 too few samples beyond it.
ROUNDS = {"serve_warm": 20, "serve_cold": 3}
#: Roughly what each server answers per second at saturation at this
#: sandbox's usual speed.  Phase B is sized from it and not ended by the
#: clock, so that every seed and every machine serves the same number of
#: requests (and ``serve_cold`` the same texts: they differ too much in
#: planning cost to be sampled).
NOMINAL_RATE = {"serve_warm": 4_000.0, "serve_cold": 100.0}
#: Share of a round given to the open loop.  The cold server's fixed rate
#: keeps the batcher under a third busy, so that the latency is a miss and
#: not the queue; it then needs the time to collect latency samples.
OPEN_SHARE = {"serve_warm": 0.5, "serve_cold": 0.6}
#: Sections each phase of a full-scale ``serve_cold`` round is run in.
COLD_SLICES = 4
#: Served cold responses re-derived directly, and executed for a truth.
COLD_CHECKED = 48


@dataclass
class Inputs:
    imdb: object
    estimator: object
    #: serve_warm: executed records whose plans are the request pool.
    records: list
    #: serve_warm: direct ``predict_runtime`` of each pool plan.
    expected: np.ndarray
    #: serve_cold: distinct SQL texts, pool order: those of phase A, of up
    #: to four tables, then those of phase B, of up to five.
    texts: list[str]
    imdb_build_seconds: float


def round_counts(workload: str, sizes: dict, seconds: float
                 ) -> tuple[int, int]:
    """Requests per round in phase A and phase B when the rounds of a run
    share ``seconds``."""
    round_seconds = seconds / ROUNDS[workload]
    rate = sizes["warm_rate" if workload == "serve_warm" else "cold_rate"]
    share = OPEN_SHARE[workload]
    return (max(int(round(rate * share * round_seconds)), 4),
            max(int(round(NOMINAL_RATE[workload] * (1.0 - share)
                          * round_seconds)), 4))


def build_inputs(args: RunArgs) -> Inputs:
    from repro.db import make_imdb_database
    from repro.models import TrainerConfig, ZeroShotConfig, ZeroShotEstimator
    from repro.sql import query_to_sql
    from repro.workload import WorkloadRunner
    from repro.workload.generator import WorkloadSpec, generate_workload

    sizes = args.sizes["serve"]
    start = time.perf_counter()
    imdb = make_imdb_database(scale=sizes["imdb_scale"], seed=42)
    imdb_build_seconds = time.perf_counter() - start
    records = WorkloadRunner(imdb, seed=CORPUS_SEED).run(generate_workload(
        imdb, WorkloadSpec(num_queries=sizes["train_queries"],
                           seed=CORPUS_SEED)))
    estimator = ZeroShotEstimator(ZeroShotConfig(hidden_dim=sizes["hidden_dim"]))
    estimator.fit(records, imdb, TrainerConfig(
        epochs=sizes["epochs"], early_stopping_patience=sizes["epochs"] + 1))

    expected, texts = np.zeros(0), []
    if args.workload == "serve_warm":
        records = records[:sizes["warm_pool"]]
        expected = np.array([estimator.predict_runtime([r.plan], imdb)[0]
                             for r in records])
    else:
        n_open, n_saturated = round_counts(args.workload, sizes, args.seconds)

        def distinct(count: int, max_tables: int, seed: int,
                     taken: list[str]) -> list[str]:
            candidates = generate_workload(imdb, WorkloadSpec(
                num_queries=count + count // 4 + 8, max_tables=max_tables,
                seed=seed))
            found = list(dict.fromkeys(
                text for text in map(query_to_sql, candidates)
                if text not in taken))
            if len(found) < count:
                raise SystemExit(f"bench: only {len(found)} distinct SQL "
                                 f"texts for serve_cold, need {count}")
            return found[:count]

        # Phase A asks for at most four tables: a five-table plan holds
        # the batcher for ~40 ms, two arrival gaps, and the open loop then
        # measured how those texts happened to bunch (p50 between 22 and
        # 100 ms in identical rounds).  Phase B serves the generator's
        # default mix, five-table joins included: nothing is timed per
        # request there.
        texts = distinct(n_open, 4, CORPUS_SEED + 1, [])
        texts += distinct(n_saturated, WorkloadSpec().max_tables,
                          CORPUS_SEED + 2, texts)
    return Inputs(imdb, estimator, records, expected, texts,
                  imdb_build_seconds)


# ----------------------------------------------------------------------
# Tracing wrappers: spans around the calls into serve / models
# ----------------------------------------------------------------------
def tracing_service(tracer: Tracer, estimator, database):
    """A ``CostModelService`` whose batches and estimator calls are
    spanned.  Both wrappers only delegate; the classes live here so that
    nothing under ``src/`` knows about tracing."""
    from repro.models.api import CostEstimator
    from repro.serve import CostModelService

    class SpannedEstimator(CostEstimator):
        name = estimator.name

        def __init__(self, inner):
            self.inner = inner

        @property
        def is_fitted(self):
            return self.inner.is_fitted

        def fit(self, records, databases, trainer=None):
            return self.inner.fit(records, databases, trainer)

        def encode_plans(self, plans, database):
            with tracer.span("featurize.encode_plans"):
                return self.inner.encode_plans(plans, database)

        def predict_encoded(self, encoded):
            with tracer.span("models.predict_encoded"):
                return self.inner.predict_encoded(encoded)

        def save(self, directory):
            self.inner.save(directory)

        @classmethod
        def load(cls, directory, database=None):
            raise NotImplementedError("a tracing wrapper is never saved")

    class SpannedService(CostModelService):
        def predict_runtime(self, items):
            with tracer.span("serve.service"):
                return super().predict_runtime(items)

    return SpannedService(SpannedEstimator(estimator), database)


# ----------------------------------------------------------------------
@dataclass
class Phase:
    """One timed section: an open loop or a saturation, the machine's
    slowdown over it (``bench.calibrate``), and the pool index of each
    item it sent."""
    result: loadgen.OpenLoopResult | loadgen.SaturationResult
    slowdown: float
    indices: np.ndarray


@dataclass
class Round:
    open: list[Phase]
    saturated: list[Phase]
    failed: int = 0
    #: serve_cold: (text index, response) of every answered request.
    served: list = field(default_factory=list)
    #: What the round's server was constructed with and counted.
    max_wait_ms: float = 0.0
    server_stats: object = None
    #: Traced runs: ``serve.service`` spans recorded before the round, so
    #: that ``first_batch + response.batch_index`` finds a request's batch.
    first_batch: int = 0
    #: Set by :meth:`settle`, at reference speed: the open-loop latencies,
    #: and what saturation answered per second.
    open_latencies: list[float] = field(default_factory=list)
    throughput: float = 0.0

    @property
    def phases(self) -> list[Phase]:
        return self.open + self.saturated

    @property
    def attempted(self) -> int:
        return sum(len(phase.indices) for phase in self.phases)

    def settle(self, keep_answers: bool) -> "Round":
        """Work out what the end-to-end metrics are made of, once the
        phases are in and checked; then drop the answers unless they are
        read again (traced runs, ``serve_cold``).  A slow machine runs
        fewer rounds, and with every round's responses retained
        ``peak_rss_mb`` of ``serve_warm`` followed the number of rounds,
        half a megabyte each."""
        self.open_latencies = [latency / phase.slowdown for phase in self.open
                               for latency in phase.result.latencies]
        self.throughput = \
            sum(phase.result.answered for phase in self.saturated) \
            / sum(phase.result.wall / phase.slowdown
                  for phase in self.saturated)
        if not keep_answers:
            for phase in self.phases:
                phase.result.answers = []
        return self

    def open_latency_by_item(self, items: int) -> np.ndarray:
        """Open-loop latency at reference speed by pool index, NaN where
        unasked or unanswered."""
        by_item = np.full(items, np.nan)
        for phase in self.open:
            for a in phase.result.answers:
                if a.latency is not None:
                    by_item[phase.indices[a.item_index]] = \
                        a.latency / phase.slowdown
        return by_item


def reference_server(service, speed: Speedometer):
    """A ``PredictionServer`` whose options are the defaults as the
    reference machine would see them.  It calls ``speed.lap()``, so a
    phase may follow at once.

    The one option that is an amount of wall-clock time, the batch timer
    (``max_wait_ms``, 2 ms by default), is passed to the constructor as
    its default times the slowdown of the moment: every time reported
    here is divided by the slowdown, and about half of the p50 of
    ``serve_warm`` is that timer.  Left at 2 ms of wall clock, ten seeds
    of one commit read a p50 between 2.3 ms (slowdown 1.7) and 3.5 ms
    (slowdown 1.3) and spread 19-23 %, p95 24 %, against a bound of 25 %.
    The value goes into the run record.
    """
    from repro.serve import PredictionServer

    default_ms = inspect.signature(
        PredictionServer).parameters["max_wait_ms"].default
    speed.lap()
    return PredictionServer(service, max_wait_ms=default_ms * speed.now)


def open_phase(server, speed: Speedometer, pool: list, indices: np.ndarray,
               due: np.ndarray) -> Phase:
    """``pool[indices[k]]`` is due at ``due[k]`` seconds of the reference
    machine.  The caller has just called ``speed.lap()``.

    Reported latencies are divided by the slowdown, so the schedule (the
    harness's own) is stretched by the slowdown of the moment: a machine
    half as fast is offered half the rate, and the server is as busy as it
    would be on the reference machine.  Left in wall-clock seconds, the
    offered load sat nearer to the knee the slower the machine ran.
    """
    from repro.errors import Overloaded

    opened = loadgen.open_loop(server.submit, [pool[i] for i in indices],
                               due * speed.now, Overloaded)
    return Phase(opened, speed.lap(), indices)


def saturation_phase(server, speed: Speedometer, pool: list,
                     indices: np.ndarray, outstanding: int) -> Phase:
    """The caller has just called ``speed.lap()``."""
    saturated = loadgen.saturate(server.submit, [pool[i] for i in indices],
                                 outstanding)
    return Phase(saturated, speed.lap(), indices)


def warm_round(server, speed: Speedometer, inputs: Inputs, sizes: dict,
               n_open: int, n_saturated: int, rng: np.random.Generator
               ) -> Round:
    plans = [record.plan for record in inputs.records]
    due = loadgen.poisson_schedule(rng, sizes["warm_rate"],
                                   n_open / sizes["warm_rate"])
    rnd = Round(
        [open_phase(server, speed, plans,
                    rng.integers(0, len(plans), size=len(due)), due)],
        [saturation_phase(server, speed, plans,
                          rng.integers(0, len(plans), size=n_saturated),
                          sizes["outstanding"])])
    # Unanswered, or not bit-identical to the direct predict_runtime of
    # the same plan computed in set-up.
    rnd.failed = sum(
        1 for phase in rnd.phases for a in phase.result.answers
        if a.response is None or a.response.runtime
        != inputs.expected[phase.indices[a.item_index]])
    return rnd


def cold_round(server, speed: Speedometer, inputs: Inputs, sizes: dict,
               n_open: int, rng: np.random.Generator) -> Round:
    """The first ``n_open`` texts of the pool at the fixed rate, the rest
    at saturation; the seed draws the order inside each phase.

    Both phases run in :data:`COLD_SLICES` sections, alternating, so that
    none is longer than half a second of the reference machine (see
    ``bench.calibrate``).  The server is under a third busy in phase A
    and idle at the end of a section either way.

    Arrivals are evenly spaced.  A miss costs between a tenth and most of
    the gap between two arrivals, so with Poisson arrivals the tail was
    how the few expensive texts happened to bunch in a hundred draws: the
    p95 of a round ran from 22 to 327 ms over ten seeds.
    """
    rnd = Round([], [])
    slices = max(min(COLD_SLICES, n_open // 8), 1)    # one at smoke scale
    open_parts = np.array_split(rng.permutation(n_open), slices)
    saturated_parts = np.array_split(
        n_open + rng.permutation(len(inputs.texts) - n_open), slices)
    for open_idx, saturated_idx in zip(open_parts, saturated_parts):
        rnd.open.append(open_phase(
            server, speed, inputs.texts, open_idx,
            np.arange(len(open_idx)) / sizes["cold_rate"]))
        rnd.saturated.append(saturation_phase(
            server, speed, inputs.texts, saturated_idx,
            sizes["outstanding"]))
    for phase in rnd.phases:
        for a in phase.result.answers:
            if a.response is None or not (np.isfinite(a.response.runtime)
                                          and a.response.runtime > 0):
                rnd.failed += 1
            else:
                rnd.served.append((int(phase.indices[a.item_index]),
                                   a.response))
    return rnd


def check_cold(inputs: Inputs, served: list) -> tuple[float, int]:
    """Re-derive the served responses of the first texts of the pool
    directly (bit-identical or failed), and execute those queries for
    the q-error of what was served."""
    from repro.models import q_error_stats
    from repro.sql import parse_query
    from repro.workload import WorkloadRunner

    sample = sorted((i, r) for i, r in served if i < COLD_CHECKED)
    runner = WorkloadRunner(inputs.imdb, seed=CORPUS_SEED)
    wrong, truths = 0, []
    for index, response in sample:
        text = inputs.texts[index]
        direct = inputs.estimator.predict_runtime([text], inputs.imdb)[0]
        wrong += int(response.runtime != direct)
        truths.append(runner.run_query(parse_query(text)).runtime_seconds)
    served_runtimes = np.array([response.runtime for _, response in sample])
    return q_error_stats(served_runtimes, np.array(truths)).median, wrong


def run(args: RunArgs) -> RunResult:
    from repro.models import q_error_stats
    from repro.serve import CostModelService, PredictionServer

    sizes = args.sizes["serve"]
    warm = args.workload == "serve_warm"
    speed = Speedometer()
    inputs, setup_seconds = repeat_setup(lambda: build_inputs(args),
                                         sizes["setup_repeats"], speed)
    rng = np.random.default_rng(args.seed)
    tracer = Tracer() if args.trace else None
    plans = [record.plan for record in inputs.records]

    def new_service(traced: bool):
        service = tracing_service(tracer, inputs.estimator, inputs.imdb) \
            if traced else CostModelService(inputs.estimator, inputs.imdb)
        if warm:
            service.warm(plans)
        return service

    # A traced warm run spends half its time on the untraced reference,
    # the rate ladder and the layer microbench.  A cold one cannot shrink:
    # the text pool was drawn for whole rounds.
    budget = args.seconds / 2.0 if args.trace and warm else args.seconds
    n_open, n_saturated = round_counts(args.workload, sizes, budget)

    service = new_service(traced=args.trace)
    with PredictionServer(service) as server:
        # One short untimed burst: allocator, lazy statistics.
        burst = [plans[i] for i in rng.integers(0, len(plans), size=256)] \
            if warm else inputs.texts[-16:]
        loadgen.saturate(server.submit, burst, sizes["outstanding"])
    rounds: list[Round] = []
    elapsed: list[float] = []
    measured_from = time.perf_counter()
    while another_repeat(args, measured_from, elapsed, budget):
        start = time.perf_counter()
        first_batch = len(tracer.durations("serve.service")) if tracer else 0
        if not warm:
            # Every round serves the same texts to an empty cache, so
            # rounds are repeats and every request is a miss.
            service.clear_cache()
        # The kernel is timed between the phases, when the server is idle
        # and it has the machine to itself as on the other workloads.
        with reference_server(service, speed) as server:
            rnd = warm_round(server, speed, inputs, sizes, n_open,
                             n_saturated, rng) if warm else \
                cold_round(server, speed, inputs, sizes, n_open, rng)
            rnd.max_wait_ms = server.max_wait_seconds * 1e3
        rnd.server_stats, rnd.first_batch = server.stats, first_batch
        rounds.append(rnd.settle(keep_answers=args.trace or not warm))
        elapsed.append(time.perf_counter() - start)
    served = {name: sum(getattr(rnd.server_stats, name) for rnd in rounds)
              for name in ("requests", "batches", "rejected", "failures")}
    slowdowns = [phase.slowdown for rnd in rounds for phase in rnd.phases]
    attempted = sum(rnd.attempted for rnd in rounds)
    failed = sum(rnd.failed for rnd in rounds)
    # At reference speed (bench.calibrate; see open_phase).
    repeats = {"throughput_ops_s": [rnd.throughput for rnd in rounds]}
    repeats.update(stats.latency_repeats(
        [rnd.open_latencies for rnd in rounds]))
    metrics = {name: stats.middle(
        values, "higher" if name == "throughput_ops_s" else "lower")
        for name, values in repeats.items()}
    if warm:
        qerror = q_error_stats(inputs.expected, np.array(
            [r.runtime_seconds for r in inputs.records])).median
    else:
        # Every round asks for the same texts, so a text has a latency in
        # each; warm requests are drawn afresh and have only their round.
        metrics.update(stats.latency_quantiles(
            [rnd.open_latency_by_item(n_open) for rnd in rounds]))
        qerror, wrong = check_cold(inputs, rounds[-1].served)
        failed += wrong

    opened = [phase.result for rnd in rounds for phase in rnd.open]
    warnings = [
        f"overloaded: generator reached {phase.achieved_rate:.0f}/s of "
        f"{phase.offered_rate:.0f}/s offered"
        for phase in opened if phase.overloaded]
    warnings.extend(f"request failed: {error}" for rnd in rounds
                    for phase in rnd.phases for error in phase.result.errors)
    context = {
        "rounds": len(rounds),
        "latency_samples_per_round": [len(rnd.open_latencies)
                                      for rnd in rounds],
        "overloaded": any(phase.overloaded for phase in opened),
        "offered_rate": [phase.offered_rate for phase in opened],
        "max_wait_ms": [rnd.max_wait_ms for rnd in rounds],
        "batch_size_mean": served["requests"] / max(served["batches"], 1),
        "cache_hit_rate": service.stats.hit_rate,
    }

    if args.trace:
        metrics = served_layer_metrics(inputs, rounds, service, served,
                                       tracer, measured_from, warm)
        with reference_server(new_service(traced=False), speed) as server:
            metrics.update(reference_metrics(
                args, inputs, server, speed, repeats["throughput_ops_s"],
                n_open, n_saturated, rng))
        if warm:
            from bench.train import layer_microbench
            metrics.update(layer_microbench(
                inputs.estimator,
                inputs.estimator.encode_plans(plans, inputs.imdb),
                args.seconds / 8.0))
        else:
            metrics.update(decomposed_cold_pass(inputs, tracer))
        tracer.write_jsonl(trace_path(args))
        context.update(spans=len(tracer.spans), trace_file=trace_path(args))
        result = RunResult(attempted, failed, metrics, slowdowns=slowdowns,
                           warnings=warnings, context=context)
    else:
        metrics["qerror_median"] = qerror
        result = RunResult(attempted, failed, metrics, repeats=repeats,
                           slowdowns=slowdowns, warnings=warnings,
                           context=context)
    return finish(args, result, setup_seconds)


# ----------------------------------------------------------------------
# Layer metrics (traced runs only)
# ----------------------------------------------------------------------
def served_layer_metrics(inputs: Inputs, rounds: list[Round], service,
                         served: dict, tracer: Tracer, measured_from: float,
                         warm: bool) -> dict:
    """What the spans of the measured rounds say about ``serve``.

    A server calls ``service.predict_runtime`` exactly once per batch, on
    one thread, so the k-th ``serve.service`` span of a round is its
    server's batch ``k`` and ``response.batch_index`` finds a request's
    batch.
    """
    batches = [(start, end) for _, name, start, end, _, _ in tracer.spans
               if name == "serve.service"]
    measured = [end - start for start, end in batches
                if start >= measured_from]
    forward = sum(end - start for _, name, start, end, _, _ in tracer.spans
                  if name == "models.predict_encoded"
                  and start >= measured_from)
    opened = [phase.result for rnd in rounds for phase in rnd.open]
    queue_waits = []
    for rnd in rounds:
        for phase in rnd.open:
            for a in phase.result.answers:
                if a.response is not None:
                    start, end = batches[rnd.first_batch
                                         + a.response.batch_index]
                    queue_waits.append(max(a.latency - (end - start), 0.0))
    wall = sum(phase.result.wall for rnd in rounds for phase in rnd.phases)
    latencies = [l for phase in opened for l in phase.latencies]
    # warm(): one miss per pool plan, before anything was measured.
    hits = service.stats.cache_hits
    misses = service.stats.cache_misses - (len(inputs.records) if warm else 0)
    level_cache = inputs.estimator.model.level_cache
    return {
        "db.imdb_build_s": inputs.imdb_build_seconds,
        "serve.batch_size_mean": served["requests"]
                                 / max(served["batches"], 1),
        "serve.batcher_busy_share": sum(measured) / wall,
        "serve.service_ms_per_batch": stats.median(measured) * 1e3,
        "serve.queue_wait_ms_p50": stats.quantile(queue_waits, 0.5) * 1e3,
        "serve.queue_wait_ms_p95": stats.quantile(queue_waits, 0.95) * 1e3,
        "serve.encode_ms_per_miss": (sum(measured) - forward) / misses * 1e3
                                    if misses > 0 else 0.0,
        "serve.cache_hit_rate": hits / max(hits + misses, 1),
        "serve.cache_evictions": float(service.stats.cache_evictions),
        "featurize.level_cache_hit_rate": level_cache.hits / max(
            level_cache.hits + level_cache.misses, 1),
        "serve.submit_ms": stats.median(
            [s for phase in opened for s in phase.submit_seconds]) * 1e3,
        "serve.rejected": float(served["rejected"]),
        "serve.failures": float(served["failures"]),
        "serve.latency_p99_ms": stats.quantile(latencies, 0.99) * 1e3,
        "serve.generator_lateness_ms_p99": stats.quantile(
            [l for phase in opened for l in phase.lateness], 0.99) * 1e3,
    }


def reference_metrics(args: RunArgs, inputs: Inputs, server,
                      speed: Speedometer, traced_throughputs: list[float],
                      n_open: int, n_saturated: int,
                      rng: np.random.Generator) -> dict:
    """On an untraced server: the same saturation phases for the tracing
    overhead and, for ``serve_warm``, the highest rate of the ladder
    that holds the latency limit.  Throughputs, rates and the limit are
    at reference speed, as in the measured rounds."""
    sizes = args.sizes["serve"]

    def throughput(pool: list, indices: np.ndarray, slices: int = 1) -> float:
        speed.lap()
        return Round([], [
            saturation_phase(server, speed, pool, part, sizes["outstanding"])
            for part in np.array_split(indices, slices)]
        ).settle(keep_answers=True).throughput

    if args.workload == "serve_cold":
        plain = []
        for _ in traced_throughputs:
            server.service.clear_cache()
            plain.append(throughput(
                inputs.texts, np.arange(n_open, len(inputs.texts)),
                COLD_SLICES))
        return {"trace_overhead_share": stats.median(plain)
                / stats.median(traced_throughputs) - 1.0}

    plans = [record.plan for record in inputs.records]

    def sample(count: int) -> np.ndarray:
        return rng.integers(0, len(plans), size=count)

    throughput(plans, sample(256))
    plain = [throughput(plans, sample(n_saturated))
             for _ in traced_throughputs]
    limit = sizes["latency_limit_ms"] / 1e3
    best = 0.0
    for rate in sizes["ladder"]:
        # A step is longer than a round's phase: its p95 stands alone.
        due = loadgen.poisson_schedule(rng, rate, args.seconds / 32.0)
        speed.lap()
        phase = open_phase(server, speed, plans, sample(len(due)), due)
        step = phase.result
        latencies = np.array(step.latencies) / phase.slowdown
        quarter = max(len(latencies) // 4, 1)
        # A backlog grows when the last requests wait much longer than
        # the first did.
        growing = (stats.median(latencies[-quarter:])
                   > 2.0 * stats.median(latencies[:quarter]) + limit / 10.0)
        if (step.overloaded or step.rejected or growing
                or len(latencies) < len(due)
                or stats.quantile(latencies, 0.95) > limit):
            break
        best = rate
    return {
        "trace_overhead_share": stats.median(plain)
                                / stats.median(traced_throughputs) - 1.0,
        "serve.max_rate_ok_rps": best,
    }


def decomposed_cold_pass(inputs: Inputs, tracer: Tracer) -> dict:
    """What one cache miss is made of: the harness runs the steps of
    ``CostModelService._encode`` itself, over texts the server has
    already served, with a span around each."""
    from repro.featurize.batch import encode_graph
    from repro.optimizer import Planner
    from repro.sql import parse_query

    planner = Planner(inputs.imdb)
    featurizer = inputs.estimator.featurizer
    scalers = inputs.estimator.model.scalers
    by_joins: dict[str, list[float]] = {}
    for index, text in enumerate(inputs.texts[:4 * COLD_CHECKED]):
        with tracer.span("sql.parse", index):
            query = parse_query(text)
        start = time.perf_counter()
        with tracer.span("optimizer.plan", index):
            plan = planner.plan(query)
        elapsed = time.perf_counter() - start
        with tracer.span("featurize.graph", index):
            graph = featurizer.featurize(plan, inputs.imdb)
        with tracer.span("featurize.encode", index):
            encode_graph(graph, scalers)
        joins = len(query.joins)
        by_joins.setdefault(f"j{joins}" if joins < 4 else "j4plus",
                            []).append(elapsed)

    def ms(name: str) -> float:
        return stats.median(tracer.durations(name)) * 1e3

    metrics = {"sql.parse_ms": ms("sql.parse"),
               "optimizer.plan_ms": ms("optimizer.plan"),
               "featurize.graph_ms": ms("featurize.graph"),
               "featurize.encode_ms": ms("featurize.encode")}
    for bucket, durations in by_joins.items():
        metrics[f"optimizer.plan_ms_{bucket}"] = stats.median(durations) * 1e3
    return metrics
