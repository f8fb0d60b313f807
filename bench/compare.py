"""``python -m bench --compare A.json B.json``.

One row per (workload, end-to-end metric), judged by the bound that
``BENCHMARK.json`` fixes for the metric:

* ``ok`` — B is not worse than A by more than the bound;
* ``regressed`` — it is;
* ``unresolved`` — the spread between the repeats of either run is wider
  than the bound, so the medians cannot settle it, unless every repeat of
  one side beats every repeat of the other.

``setup_s`` may also worsen by :data:`SETUP_SLACK_SECONDS` where that is
more than its bound: the shortest set-up is a fifth of a second.

Exits non-zero on any regression or any rise in failed operations.
"""

from __future__ import annotations

import json

from bench.core import declaration
from bench.stats import spread

__all__ = ["SETUP_SLACK_SECONDS", "judge", "main"]

SETUP_SLACK_SECONDS = 0.5


def judge(a: float, b: float, a_repeats: list[float], b_repeats: list[float],
          better: str, bound: float, slack: float = 0.0
          ) -> tuple[str, float, float]:
    """``(status, worse_by, spread)`` for one metric; ``worse_by`` is the
    share of A by which B is worse (negative when B is better).  ``slack``
    is an amount, in the metric's unit, by which B may be worse whatever
    the bound."""
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b - a) / abs(a) if a else 0.0
    if a:
        bound = max(bound, slack / abs(a))
    noise = max(spread(a_repeats), spread(b_repeats))
    if noise > bound and a_repeats and b_repeats:
        if all(sign * (y - x) > bound * abs(x)
               for x in a_repeats for y in b_repeats):
            return "regressed", worse_by, noise
        if all(sign * (y - x) <= 0 for x in a_repeats for y in b_repeats):
            return "ok", worse_by, noise
        return "unresolved", worse_by, noise
    return ("regressed" if worse_by > bound else "ok"), worse_by, noise


def main(path_a: str, path_b: str) -> int:
    with open(path_a) as handle:
        a_all = json.load(handle)["workloads"]
    with open(path_b) as handle:
        b_all = json.load(handle)["workloads"]
    declared = declaration()
    bad = 0
    print(f"{'workload':16s} {'metric':18s} {'A':>12s} {'B':>12s} "
          f"{'worse by':>9s} {'spread':>7s} {'bound':>6s}  status")
    for workload in declared["workloads"]:
        name = workload["name"]
        if name not in a_all or name not in b_all:
            continue
        a_run, b_run = a_all[name], b_all[name]
        for metric in declared["end_to_end"]:
            key = metric["name"]
            a = a_run["metrics"][key]["value"]
            b = b_run["metrics"][key]["value"]
            status, worse_by, noise = judge(
                a, b,
                a_run["repeats"].get(key, {}).get("values", []),
                b_run["repeats"].get(key, {}).get("values", []),
                metric["better"], metric["bound"],
                SETUP_SLACK_SECONDS if key == "setup_s" else 0.0)
            bad += status == "regressed"
            print(f"{name:16s} {key:18s} {a:12.5g} {b:12.5g} "
                  f"{worse_by:+9.1%} {noise:7.1%} {metric['bound']:6.0%}  "
                  f"{status}")
        if b_run["failed"] > a_run["failed"]:
            bad += 1
            print(f"{name:16s} {'failed':18s} {a_run['failed']:12d} "
                  f"{b_run['failed']:12d} {'':>9s} {'':>7s} {'':>6s}  "
                  f"regressed")
    return 1 if bad else 0
