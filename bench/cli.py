"""Command line of the harness (see ``bench/README.md``).

``--workload NAME`` measures one workload in this process and prints one
JSON object as the last line of standard output.  Without it, every
workload of ``BENCHMARK.json`` runs in a subprocess of its own, one after
the other, so that ``peak_rss_mb`` and the caches are per workload.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from bench import compare
from bench.core import (CORPUS_SEED, RunArgs, RunResult, SCALES, declaration,
                        record_path)
from bench.hygiene import REPO_ROOT, fingerprint, import_repro, output_directory
from bench.stats import summary

__all__ = ["main"]


def workload_runner(name: str):
    """The module that implements a workload, imported on demand."""
    if name.startswith("collect_"):
        from bench import collect as module
    elif name == "train_fit":
        from bench import train as module
    elif name.startswith("serve_"):
        from bench import serve as module
    else:
        raise SystemExit(f"bench: unknown workload {name!r}")
    return module.run


def units(trace: bool) -> dict[str, str]:
    section = "per_layer" if trace else "end_to_end"
    return {metric["name"]: metric["unit"]
            for metric in declaration()[section]}


def run_record(args: RunArgs, result: RunResult) -> dict:
    """Everything one run measured, with the hygiene around it."""
    unit_of = units(args.trace)
    return {
        "workload": args.workload, "seed": args.seed,
        "corpus_seed": CORPUS_SEED, "seconds": args.seconds,
        "scale": args.scale, "trace": int(args.trace),
        "fingerprint": fingerprint(),
        "attempted": result.attempted, "failed": result.failed,
        "correct": result.failed == 0,
        "metrics": {name: {"value": value, "unit": unit_of[name]}
                    for name, value in sorted(result.metrics.items())},
        "repeats": {name: summary(values)
                    for name, values in sorted(result.repeats.items())},
        "slowdowns": summary(result.slowdowns),
        "warnings": result.warnings,
        "context": result.context,
    }


def run_one(args: RunArgs) -> int:
    import_repro()
    result = workload_runner(args.workload)(args)
    record = run_record(args, result)
    with open(record_path(args), "w") as handle:
        json.dump(record, handle, indent=1)
    for name, metric in record["metrics"].items():
        print(f"{args.workload:16s} {name:36s} "
              f"{metric['value']:.6g} {metric['unit']}")
    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    print(json.dumps({key: record[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


def run_all(options: argparse.Namespace) -> int:
    """Every declared workload, each in its own subprocess."""
    records = {}
    for workload in declaration()["workloads"]:
        args = RunArgs(workload["name"], options.seed, options.seconds,
                       bool(options.trace), options.scale)
        command = [sys.executable, "-m", "bench",
                   "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds),
                   "--trace", str(int(args.trace)), "--scale", args.scale]
        completed = subprocess.run(command, cwd=REPO_ROOT)
        if completed.returncode != 0:
            print(f"bench: {args.workload} exited with "
                  f"{completed.returncode}", file=sys.stderr)
            return completed.returncode
        with open(record_path(args)) as handle:
            records[args.workload] = json.load(handle)
    out = options.out or f"{output_directory()}/bench.trace{options.trace}.json"
    with open(out, "w") as handle:
        json.dump({"workloads": records}, handle, indent=1)
    print(f"bench: wrote {out}")
    failed = sum(record["failed"] for record in records.values())
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m bench", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="measure only this workload, "
                        "in this process")
    parser.add_argument("--seed", type=int, default=0,
                        help="order, arrival schedule and request mix")
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the measured part of one workload "
                        "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="1: record spans and print the "
                        "per-layer metrics instead of the end-to-end ones")
    parser.add_argument("--scale", choices=sorted(SCALES), default="full")
    parser.add_argument("--out", help="where to write the combined record "
                        "of all workloads")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two combined records against the "
                        "bounds of BENCHMARK.json")
    parser.add_argument("--selftest", action="store_true",
                        help="check the open-loop generator against a stub "
                        "server with a fixed service time")
    options = parser.parse_args(argv)

    if options.compare:
        return compare.main(*options.compare)
    if options.selftest:
        from bench import loadgen
        return loadgen.self_test()
    if options.seconds is None:
        options.seconds = float(declaration()["run_seconds"])
    if options.workload:
        return run_one(RunArgs(options.workload, options.seed, options.seconds,
                               bool(options.trace), options.scale))
    return run_all(options)
