"""``train_fit``: the one-time training effort.

Set-up collects a small multi-database corpus and an executed IMDB
holdout.  The timed section is one ``ZeroShotEstimator.fit`` over the
corpus; fits repeat until ``--seconds`` is used up, each from a freshly
initialised model, so every fit is the same work.  An op is one
sample-epoch.  ``optimizer`` and ``engine`` do nothing inside a fit;
``featurize``, ``nn`` and ``models`` do all of it.

A sample-epoch has no latency of its own (a fit is one call), so
``latency_*`` on this workload are what the fit is for: the time of one
``predict_runtime`` call of the freshly fitted model on one plan of a
database it never saw, closed loop, one plan at a time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from bench import stats
from bench.core import (CORPUS_SEED, RunArgs, RunResult, Speedometer,
                        another_repeat, finish, repeat_setup, trace_path)
from bench.spans import Tracer

__all__ = ["run"]

BATCH = 64
#: Holdout loops after each timed fit.  A loop is a twentieth of a second,
#: so the loops of a run are a thin sample of the machine: with one per fit
#: (ten a run) the p95 of ten seeds of one commit spread 15 %.
HOLDOUT_LOOPS = 3


@dataclass
class Inputs:
    databases: dict           # name -> Database (the training fleet)
    records: list             # executed training records, pool order
    imdb: object
    holdout: list             # executed IMDB records the model never saw
    hydrate_seconds: list[float]
    imdb_build_seconds: float


def build_inputs(sizes: dict) -> Inputs:
    from repro.db import (generate_database, generate_training_database_specs,
                          make_imdb_database)
    from repro.workload import WorkloadRunner, make_benchmark_workload
    from repro.workload.generator import WorkloadSpec, generate_workload

    specs = generate_training_database_specs(
        sizes["databases"], base_seed=CORPUS_SEED,
        min_rows=sizes["min_rows"], max_rows=sizes["max_rows"])
    databases, records, hydrate_seconds = {}, [], []
    for index, spec in enumerate(specs):
        start = time.perf_counter()
        database = generate_database(spec)
        hydrate_seconds.append(time.perf_counter() - start)
        databases[database.name] = database
        records.extend(WorkloadRunner(database, seed=CORPUS_SEED).run(
            generate_workload(database, WorkloadSpec(
                num_queries=sizes["queries_per_database"],
                seed=CORPUS_SEED * 1_000 + index))))
    start = time.perf_counter()
    imdb = make_imdb_database(scale=sizes["imdb_scale"], seed=42)
    imdb_build_seconds = time.perf_counter() - start
    holdout = WorkloadRunner(imdb, seed=CORPUS_SEED).run(
        make_benchmark_workload(imdb, "scale", sizes["holdout_queries"],
                                seed=CORPUS_SEED))
    return Inputs(databases, records, imdb, holdout, hydrate_seconds,
                  imdb_build_seconds)


def new_estimator(sizes: dict):
    from repro.models import ZeroShotConfig, ZeroShotEstimator
    return ZeroShotEstimator(ZeroShotConfig(hidden_dim=sizes["hidden_dim"]))


def trainer_config(sizes: dict):
    from repro.models import TrainerConfig
    # Patience above the epoch count: every fit runs every epoch, so the
    # op count does not depend on where validation loss happens to turn.
    return TrainerConfig(epochs=sizes["epochs"], batch_size=BATCH,
                         early_stopping_patience=sizes["epochs"] + 1)


def predict_holdout(estimator, inputs: Inputs) -> tuple[float, list[float]]:
    """Predict the holdout one plan at a time: the median q-error against
    the executed runtimes, and the seconds each call took."""
    from repro.models import q_error_stats
    clock = time.perf_counter
    predicted, seconds = [], []
    # Untimed: the call that follows the speedometer's kernel finds the
    # caches cold (2.4 ms against 1.4 ms here) and would be the loop's p95.
    estimator.predict_runtime([inputs.holdout[-1].plan], inputs.imdb)
    for record in inputs.holdout:
        start = clock()
        predicted.append(estimator.predict_runtime([record.plan],
                                                   inputs.imdb)[0])
        seconds.append(clock() - start)
    actual = np.array([record.runtime_seconds for record in inputs.holdout])
    return q_error_stats(np.array(predicted), actual).median, seconds


def run(args: RunArgs) -> RunResult:
    sizes = args.sizes["train"]
    speed = Speedometer()
    inputs, setup_seconds = repeat_setup(
        lambda: build_inputs(sizes), sizes["setup_repeats"], speed)
    # Pool order, whatever ``--seed``: the split and the batches follow the
    # order, and a small model's q-error moves by a fifth between orders,
    # which would drown the "faster but different" guard.  The seed only
    # draws the order in which the holdout plans are predicted.
    records = inputs.records
    inputs.holdout = [inputs.holdout[i] for i in np.random.default_rng(
        args.seed).permutation(len(inputs.holdout))]
    trainer = trainer_config(sizes)

    def fit_once():
        estimator = new_estimator(sizes)
        start = time.perf_counter()
        estimator.fit(records, inputs.databases, trainer)
        return estimator, time.perf_counter() - start

    reference, _ = fit_once()          # untimed warm-up, and the reference
    expected_losses = reference.history.train_losses
    expected_qerror, _ = predict_holdout(reference, inputs)

    if args.trace:
        result = run_traced(args, inputs, records, trainer, fit_once, speed)
        return finish(args, result, setup_seconds)

    walls, predict_seconds, slowdowns, failed_fits = [], [], [], 0
    elapsed: list[float] = []
    speed.lap()
    began = time.perf_counter()
    while another_repeat(args, began, elapsed):
        start = time.perf_counter()
        estimator, wall = fit_once()
        slowdowns.append(speed.lap())
        walls.append(wall / slowdowns[-1])
        # A holdout loop is a tenth of a fit long: each has a stretch, and
        # so a slowdown, of its own.
        for _ in range(HOLDOUT_LOOPS):
            qerror, seconds = predict_holdout(estimator, inputs)
            predict_seconds.append(np.array(seconds) / speed.lap())
        # Same records, same seeds: a fit that does not reproduce the
        # reference bit for bit trained a different model.
        if (estimator.history.train_losses != expected_losses
                or not np.isfinite(expected_losses).all()
                or qerror != expected_qerror):
            failed_fits += 1
        elapsed.append(time.perf_counter() - start)
    ops_per_fit = len(records) * trainer.epochs
    repeats = {"throughput_ops_s": [ops_per_fit / wall for wall in walls]}
    repeats.update(stats.latency_repeats(predict_seconds))
    metrics = {"throughput_ops_s": stats.middle(repeats["throughput_ops_s"],
                                             "higher"),
               "qerror_median": expected_qerror}
    metrics.update(stats.latency_quantiles(predict_seconds))
    result = RunResult(
        attempted=ops_per_fit * len(walls), failed=ops_per_fit * failed_fits,
        metrics=metrics, repeats=repeats, slowdowns=slowdowns,
        context={"fits": len(walls), "records": len(records),
                 "epochs": trainer.epochs,
                 "holdout_queries": len(inputs.holdout)},
    )
    return finish(args, result, setup_seconds)


# ----------------------------------------------------------------------
def timed_loop(call, seconds: float, at_least: int = 5) -> list[float]:
    """Durations of repeated ``call()`` for about ``seconds``."""
    durations = []
    began = time.perf_counter()
    while len(durations) < at_least or time.perf_counter() - began < seconds:
        start = time.perf_counter()
        call()
        durations.append(time.perf_counter() - start)
    return durations


def layer_microbench(estimator, encoded: list, seconds: float) -> dict:
    """Per-layer costs of the model path on fixed batches of ``encoded``
    graphs, shared by ``train_fit`` and ``serve_warm`` traces.

    Forward times go through the public ``predict_encoded`` (merge plus
    forward under ``no_grad``); the train step drives ``ZeroShotNet``
    through ``repro.nn`` exactly as ``train_model`` does.
    """
    from repro.featurize.batch import LevelPlanCache, merge_encoded
    from repro.models.zero_shot import ZeroShotNet
    from repro.nn import Adam, Tensor, clip_grad_norm
    from repro.nn import functional as F

    def ms(values) -> float:
        return stats.median(values) * 1e3

    slot = seconds / 7.0
    batch64 = encoded[:BATCH]
    metrics = {}
    for size in (1, 16, 64):
        batch = encoded[:size]
        metrics[f"models.forward_ms_b{size}"] = ms(timed_loop(
            lambda: estimator.predict_encoded(batch), slot))
    metrics["featurize.merge_ms_b64"] = ms(timed_loop(
        lambda: merge_encoded(batch64), slot))
    cache = LevelPlanCache()
    merge_encoded(batch64, level_cache=cache)
    metrics["featurize.merge_cached_ms_b64"] = ms(timed_loop(
        lambda: merge_encoded(batch64, level_cache=cache), slot))

    if all(graph.target_log_runtime is not None for graph in batch64):
        net = ZeroShotNet(estimator.model.config)
        net.train()
        optimizer = Adam(net.parameters(), lr=1e-3, weight_decay=1e-5)
        batch = merge_encoded(batch64, require_targets=True)
        targets = Tensor((batch.targets - batch.targets.mean())
                         / max(batch.targets.std(), 1e-6))
        backward = []

        def step():
            optimizer.zero_grad()
            loss = F.q_loss(net(batch), targets)
            start = time.perf_counter()
            loss.backward()
            backward.append(time.perf_counter() - start)
            clip_grad_norm(net.parameters(), 5.0)
            optimizer.step()

        steps = timed_loop(step, 2 * slot)
        metrics["nn.train_step_ms_b64"] = ms(steps)
        metrics["nn.backward_share"] = sum(backward) / sum(steps)
    return metrics


def run_traced(args: RunArgs, inputs: Inputs, records: list, trainer,
               fit_once, speed: Speedometer) -> RunResult:
    from repro.featurize.batch import encode_graph, fit_scalers
    from repro.featurize.graph import CardinalitySource, ZeroShotFeaturizer

    sizes = args.sizes["train"]
    tracer = Tracer()
    featurizer = ZeroShotFeaturizer(CardinalitySource.ESTIMATED)
    budget = args.seconds / 2.0      # the other half is the microbench

    plain_walls, traced_walls, slowdowns, elapsed = [], [], [], []
    plain_slowdowns: list[float] = []
    speed.lap()
    began = time.perf_counter()
    while another_repeat(args, began, elapsed, budget):
        estimator, wall = fit_once()
        plain_walls.append(wall)
        plain_slowdowns.append(speed.lap())
        # The same fit with the harness doing the featurize step itself:
        # fit() is featurize-every-record, then what fit_graphs() does.
        traced = new_estimator(sizes)
        start = time.perf_counter()
        with tracer.span("models.fit"):
            graphs = []
            for index, record in enumerate(records):
                with tracer.span("featurize.graph", index):
                    graphs.append(featurizer.featurize(
                        record.plan, inputs.databases[record.database_name],
                        record.runtime_seconds))
            with tracer.span("models.fit_graphs"):
                traced.fit_graphs(graphs, trainer)
        traced_walls.append(time.perf_counter() - start)
        slowdowns.append(speed.lap())
        elapsed.append(plain_walls[-1] + traced_walls[-1])

    # encode_graph alone; fit() does this once per graph, inside fit_graphs.
    start = time.perf_counter()
    scalers = fit_scalers(graphs)
    scalers_seconds = time.perf_counter() - start
    encoded = []
    for index, graph in enumerate(graphs):
        with tracer.span("featurize.encode", index):
            encoded.append(encode_graph(graph, scalers))

    featurize_per_fit = sum(tracer.durations("featurize.graph")) \
        / len(traced_walls)
    encode_once = (featurize_per_fit + scalers_seconds
                   + sum(tracer.durations("featurize.encode")))
    level_cache = estimator.model.level_cache
    metrics = {
        "db.hydrate_s_per_database": stats.median(inputs.hydrate_seconds),
        "db.imdb_build_s": inputs.imdb_build_seconds,
        "featurize.graph_ms": stats.median(
            tracer.durations("featurize.graph")) * 1e3,
        "featurize.encode_ms": stats.median(
            tracer.durations("featurize.encode")) * 1e3,
        "featurize.level_cache_hit_rate": level_cache.hits / max(
            level_cache.hits + level_cache.misses, 1),
        "models.encode_once_s": encode_once,
        "models.fit_epoch_s": (stats.median(plain_walls) - encode_once)
                              / trainer.epochs,
        "trace_overhead_share": stats.median(
            np.array(traced_walls) / slowdowns) / stats.median(
            np.array(plain_walls) / plain_slowdowns) - 1.0,
    }
    metrics.update(layer_microbench(estimator, encoded,
                                    args.seconds - budget))
    tracer.write_jsonl(trace_path(args))
    ops = len(records) * trainer.epochs * len(traced_walls)
    return RunResult(attempted=ops, failed=0, metrics=metrics,
                     slowdowns=slowdowns,
                     context={"fits": len(traced_walls),
                              "spans": len(tracer.spans),
                              "trace_file": trace_path(args)})
