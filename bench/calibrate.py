"""How slow the machine is right now, so that times can be reported at one
speed.

The sandbox this harness was written on runs the same single-threaded
code at anything between 1.0 and 1.8 times its best time, changing within
seconds and staying slow for minutes (neighbours on the host: no steal
time is reported, and CPU time stretches with wall time).  Every time
metric followed: as measured, ten runs of one commit spread 17-57 %
(distance between the quartiles over the median), and the driver accepts
a benchmark only when that spread is inside the metric's bound, which is
at most 25 %.

So a fixed *kernel* that calls nothing of ``repro`` is timed **between**
the timed sections of a run, never inside one, and each section's times
are divided by the *slowdown* of the machine around it: the kernel's time
over :data:`REFERENCE_SECONDS`.  Reported times are then "at reference
speed".  In two 15-minute recordings that alternated such a kernel with
collection passes and model fits, the passes and fits spread 10-14 %
between 10 s windows as measured and 4-7 % once divided by the slowdown.
A change to ``repro`` cannot move the kernel, so a real gain or loss
shows in full; what the correction cannot remove (different code slows a
little differently in the same spell) is what the measured spreads in
``README.md`` still show.

The kernel is a mix, because the slow spells do not slow all code alike.
In one recorded spell a prediction loop ran 1.84 times slower, a
collection section 1.62 and a fit 1.50, while candidate parts read from
1.18 (scattered reads of a 32 MB array) to 1.87 (``pprint``).  The parts
kept: interpreter work on small objects, JSON through the C accelerator,
the selection / sort / search / count idiom of an executor, a chain of
small matrix products, and ``copy.deepcopy`` of a nested document, the
part that followed the prediction loop closest (1.82).  Over that whole
15-minute recording no mix was decisively better than another (sections
5.9-8.4 %, fits 8.6-11.4 %, prediction loops 7.8-8.8 %), and the 32 MB
array added nothing.  The inputs take under a megabyte, so the kernel
neither adds to ``peak_rss_mb`` nor empties the caches of the section
that follows.
"""

from __future__ import annotations

import copy
import json
import statistics
import time

import numpy as np

__all__ = ["REFERENCE_SECONDS", "Speedometer"]

#: The kernel's time on the reference sandbox (2-core Xeon 2.1 GHz,
#: Python 3.11, numpy 2.4) in its fast spells.  Only a unit: parent and
#: change are divided by the same constant.
REFERENCE_SECONDS = 0.0085


class _Point:
    __slots__ = ("a", "b", "c")

    def __init__(self, a, b, c):
        self.a, self.b, self.c = a, b, c


def _kernel():
    """Build the inputs once; return the function that does the work."""
    rng = np.random.default_rng(0)
    document = {f"k{i}": {"a": [i, i * 2.5, str(i)],
                          "b": {"x": "y" * i, "z": [1, 2, 3, None, True]}}
                for i in range(60)}
    column = rng.integers(0, 5_000, size=20_000)
    values = rng.normal(size=20_000)
    keys = np.sort(rng.integers(0, 5_000, size=3_000))
    weights = rng.normal(size=(64, 64))

    def objects():
        points = [_Point(i % 97, str(i), (i * 7) % 13) for i in range(2_000)]
        points.sort(key=lambda p: (p.c, p.a))
        groups: dict = {}
        for p in points:
            groups.setdefault(p.b[-2:], []).append(p.a + p.c)
        return len(groups)

    def documents():
        for _ in range(8):
            json.loads(json.dumps(document))

    def executor():
        chosen = np.flatnonzero((column > 100) & (values < 1.5))
        order = np.argsort(column[chosen], kind="stable")
        slot = np.minimum(np.searchsorted(keys, column[chosen][order]),
                          len(keys) - 1)
        counts = np.bincount(slot, minlength=len(keys))
        return float((values[chosen][order] * counts[slot]).sum())

    def network():
        x = weights
        for _ in range(150):
            x = np.maximum(x @ weights * 0.01, 0.0) + 1.0
        return x

    def copies():
        return copy.deepcopy(document)

    def kernel():
        objects(), documents(), executor(), network(), copies()

    return kernel


class Speedometer:
    """Times the kernel on demand; see the module docstring.

    A *stretch* runs from one ``lap()`` to the next.  ``lap()`` reads the
    slowdown (the median of three kernel times over the reference), and
    returns the slowdown over the stretch it closes: the mean of the
    readings at its two ends.  Back-to-back stretches share the reading
    between them.  Callers keep a timed section to half a second at most,
    and to a quarter where the work can be cut: the machine's speed moves
    within a second, and in a recording of the kernel alone the ends of a
    1.7 s stretch missed its middle by 7 %.
    """

    def __init__(self):
        self._kernel = _kernel()
        self._kernel()                      # first-call costs stay out
        #: The slowdown at the last ``lap()``.
        self.now = self._read()

    def _read(self) -> float:
        seconds = []
        for _ in range(3):
            start = time.perf_counter()
            self._kernel()
            seconds.append(time.perf_counter() - start)
        return statistics.median(seconds) / REFERENCE_SECONDS

    def lap(self) -> float:
        before, self.now = self.now, self._read()
        return 0.5 * (before + self.now)
