"""What every workload shares: its arguments, its result, its sizing.

``BENCHMARK.json`` is the single declaration of metric names, units,
directions and bounds; :func:`declaration` reads it for the comparer and
the smoke test, and :func:`finish` refuses a workload that emits a
different set of names, so the file and the code cannot drift apart.
"""

from __future__ import annotations

import gc
import json
import os
import time
from dataclasses import dataclass, field
from typing import Callable, TypeVar

from bench import stats
from bench.calibrate import Speedometer
from bench.hygiene import REPO_ROOT, output_directory, peak_rss_mb

__all__ = ["CORPUS_SEED", "RunArgs", "RunResult", "SCALES", "Speedometer",
           "declaration", "another_repeat", "finish", "record_path",
           "repeat_setup", "trace_path"]

T = TypeVar("T")

#: Sizing per ``--scale``.  ``full`` is sized so that one run (set-up,
#: verification, ``--seconds 10`` of measurement) ends in about 20 s on a
#: 2-core 2.1 GHz Xeon; ``smoke`` is tens of ops for the tier-1 test.
#: The corpus is fixed by :data:`CORPUS_SEED`; ``--seed`` draws only the
#: order, the arrival schedule and the request mix (README, "What the seed
#: does").
SCALES = {
    "full": {
        # However slow the machine: a median needs three.
        "min_repeats": 3,
        "collect": {"setup_repeats": 5, "databases": 4, "min_rows": 1_000,
                    "max_rows": 20_000, "queries_per_database": 75},
        "train": {"setup_repeats": 3, "databases": 4, "min_rows": 300,
                  "max_rows": 4_000, "queries_per_database": 60,
                  "epochs": 6, "hidden_dim": 64, "holdout_queries": 40,
                  "imdb_scale": 0.05},
        "serve": {"setup_repeats": 3, "imdb_scale": 0.05,
                  "train_queries": 128, "epochs": 4, "hidden_dim": 64,
                  "warm_pool": 128, "warm_rate": 1_500.0, "cold_rate": 50.0,
                  "outstanding": 256,
                  "ladder": (500.0, 1_000.0, 2_000.0, 3_000.0),
                  "latency_limit_ms": 50.0},
    },
    "smoke": {
        "min_repeats": 1,
        "collect": {"setup_repeats": 1, "databases": 2, "min_rows": 300,
                    "max_rows": 1_500, "queries_per_database": 10},
        "train": {"setup_repeats": 1, "databases": 2, "min_rows": 300,
                  "max_rows": 1_000, "queries_per_database": 12,
                  "epochs": 2, "hidden_dim": 16, "holdout_queries": 8,
                  "imdb_scale": 0.02},
        "serve": {"setup_repeats": 1, "imdb_scale": 0.02,
                  "train_queries": 16, "epochs": 2, "hidden_dim": 16,
                  "warm_pool": 16, "warm_rate": 200.0, "cold_rate": 20.0,
                  "outstanding": 16, "ladder": (100.0, 200.0),
                  "latency_limit_ms": 50.0},
    },
}


#: Draws the databases, the query pools, the simulator's noise and the
#: trained models, whatever ``--seed``: redrawing the queries moved
#: ``throughput_ops_s`` by 8-20 % between seeds, which no bound resolves.
CORPUS_SEED = 0


@dataclass(frozen=True)
class RunArgs:
    workload: str
    seed: int
    seconds: float
    trace: bool
    scale: str = "full"

    @property
    def sizes(self) -> dict:
        return SCALES[self.scale]


@dataclass
class RunResult:
    attempted: int
    failed: int
    #: metric name -> value, for the mode that ran (end-to-end or layer).
    metrics: dict[str, float]
    #: metric name -> one raw value per repeat (timed section or pass).
    repeats: dict[str, list[float]] = field(default_factory=dict)
    #: machine slowdown over each timed section (``bench.calibrate``).
    #: End-to-end times are already divided by it; layer times are as the
    #: spans measured them, with the median reported beside them.
    slowdowns: list[float] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    #: free-form context for the run record (sample counts, flags).
    context: dict = field(default_factory=dict)


def trace_path(args: RunArgs) -> str:
    return os.path.join(output_directory(),
                        f"trace.{args.workload}.seed{args.seed}.jsonl")


def record_path(args: RunArgs) -> str:
    return os.path.join(
        output_directory(),
        f"run.{args.workload}.seed{args.seed}.trace{int(args.trace)}.json")


def declaration() -> dict:
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def repeat_setup(build: Callable[[], T], repeats: int,
                 speed: Speedometer) -> tuple[T, list[float]]:
    """Run the whole set-up ``repeats`` times; keep the last, time each
    (at reference speed)."""
    seconds = []
    built = None
    speed.lap()
    for _ in range(repeats):
        built = None
        gc.collect()
        start = time.perf_counter()
        built = build()
        elapsed = time.perf_counter() - start
        seconds.append(elapsed / speed.lap())
    return built, seconds


def another_repeat(args: RunArgs, began: float, elapsed: list[float],
                   seconds: float | None = None) -> bool:
    """Whether a run goes on to another repeat (pass, fit, round): it has
    fewer than the scale's ``min_repeats``, or most of one still fits into
    the ``seconds`` (default ``--seconds``) that began at ``began``.
    ``elapsed`` is what each repeat so far took, the kernel's time
    included."""
    if seconds is None:
        seconds = args.seconds
    return (len(elapsed) < args.sizes["min_repeats"] or
            time.perf_counter() - began + 0.5 * stats.median(elapsed) < seconds)


def finish(args: RunArgs, result: RunResult,
           setup_seconds: list[float]) -> RunResult:
    """Add the metrics every workload reports the same way and check the
    emitted names against ``BENCHMARK.json``."""
    declared = declaration()
    if args.trace:
        expected = {metric["name"] for metric in declared["per_layer"]}
        # A layer that is not on this workload's path reads 0: "should
        # not move here" is then visible in the same table.
        for name in expected - set(result.metrics):
            result.metrics[name] = 0.0
        result.metrics["machine.slowdown"] = stats.median(result.slowdowns)
    else:
        expected = {metric["name"] for metric in declared["end_to_end"]}
        result.metrics["setup_s"] = stats.median(setup_seconds)
        result.repeats["setup_s"] = list(setup_seconds)
        result.metrics["peak_rss_mb"] = peak_rss_mb()
        result.metrics["succeeded_share"] = \
            1.0 - result.failed / result.attempted
    if set(result.metrics) != expected:
        raise SystemExit(
            f"bench: {args.workload} emitted metrics that BENCHMARK.json "
            f"does not declare, or the reverse: "
            f"{sorted(set(result.metrics) ^ expected)}")
    return result
