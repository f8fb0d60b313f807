"""Order statistics shared by the workloads, the comparer and the smoke test."""

from __future__ import annotations

import statistics
from typing import Sequence

import numpy as np

__all__ = ["latency_quantiles", "latency_repeats", "median", "middle",
           "quantile", "spread", "summary"]


def median(values: Sequence[float]) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64)))


def middle(values: Sequence[float], better: str) -> float:
    """The median over the repeats of a run; of an even number, the better
    of the two in the middle (``better`` is "lower" or "higher").

    Interference only ever makes a repeat worse.  Two of four rounds of
    ``serve_warm`` that caught a stall of the machine read 48 and 98 ms
    where the other two read 5.5 and 7.5: their mean says nothing about
    the server.
    """
    ordered = sorted(float(v) for v in values)
    index = (len(ordered) - 1) // 2 if better == "lower" else len(ordered) // 2
    return ordered[index]


def quantile(values: Sequence[float], q: float) -> float:
    return float(np.quantile(np.asarray(values, dtype=np.float64), q))


def _latency_metrics(seconds) -> dict[str, float]:
    seconds = np.asarray(seconds, dtype=np.float64)
    seconds = seconds[~np.isnan(seconds)]
    return {"latency_p50_ms": float(np.quantile(seconds, 0.5)) * 1e3,
            "latency_p95_ms": float(np.quantile(seconds, 0.95)) * 1e3}


def latency_quantiles(by_repeat: Sequence[Sequence[float]]) -> dict[str, float]:
    """The two latency metrics of ops that every repeat of a run ran.

    ``by_repeat[r][k]`` is the seconds op ``k`` took in repeat ``r``, NaN
    where it failed.  An op's latency is its median over the repeats and
    the quantiles are taken over the ops, so a burst of interference moves
    the ops it hit in one repeat and not the tail of the run.
    """
    table = np.asarray(by_repeat, dtype=np.float64)
    answered = ~np.isnan(table).all(axis=0)
    return _latency_metrics(np.nanmedian(table[:, answered], axis=0))


def latency_repeats(by_repeat: Sequence[Sequence[float]]) -> dict[str, list]:
    """The same two quantiles of each repeat on its own, for the run
    record and the comparer's spread."""
    rows = [_latency_metrics(row) for row in by_repeat]
    return {name: [row[name] for row in rows] for name in rows[0]}


def summary(values: Sequence[float]) -> dict:
    """Raw per-repeat values with their min / median / max."""
    values = [float(v) for v in values]
    return {"values": values, "min": min(values), "median": median(values),
            "max": max(values), "n": len(values)}


def spread(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median.

    Fewer than four values have no quartiles worth the name; the full
    range stands in, which can only overstate the spread.
    """
    values = [float(v) for v in values]
    if len(values) < 2:
        return 0.0
    centre = abs(median(values))
    if centre == 0.0:
        return 0.0
    if len(values) < 4:
        return (max(values) - min(values)) / centre
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / centre
