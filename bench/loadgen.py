"""Load generation for the serving workloads, and its own self-test.

*Open loop* (:func:`open_loop`): requests are due on a Poisson schedule
drawn before the run, whatever the server does.  Each request's latency
counts from the moment it was **due**, not from the moment it was sent,
so a stall in the generator (or a server that blocks ``submit``) shows up
as latency on every request that was due during the stall, and not only
as generator lateness.  If the generator cannot offer the asked rate the
phase is flagged ``overloaded`` instead of quietly offering less.

*Saturation* (:func:`saturate`): one thread keeps a bounded number of
requests outstanding; what comes back per second is the throughput.

Both run on the calling thread; the only other runnable thread is the
server's batcher, so the load never uses more threads than a 2-core
sandbox has.  The generator only sleeps, it never spins: a spinning
Python thread would hold the interpreter lock against the batcher.

The server is anything with ``submit(item) -> pending`` where
``pending.result(timeout)`` returns an object with ``latency_seconds``
(submit to response) or raises; :class:`StubServer` is the smallest such
thing, with a fixed service time, for :func:`self_test`.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from bench import stats

__all__ = ["OpenLoopResult", "SaturationResult", "StubServer", "open_loop",
           "poisson_schedule", "saturate", "self_test"]

#: Bound on every wait for a response: a hung server fails the run.
WAIT = 60.0
#: The generator has fallen behind when, at the end of the schedule, it is
#: later than this share of the schedule's length.
OVERLOAD_SHARE = 0.05


def poisson_schedule(rng: np.random.Generator, rate: float,
                     seconds: float) -> np.ndarray:
    """Due times (offsets from the start) of a Poisson arrival process,
    given that ``round(rate * seconds)`` arrivals fall within ``seconds``.

    Given their number, Poisson arrivals are independent and uniform over
    the interval.  Fixing the number fixes the rate each seed offers;
    drawing it too would move a short phase's load by 1/sqrt(count).
    """
    count = max(int(round(rate * seconds)), 2)
    return np.sort(rng.uniform(0.0, seconds, size=count))


@dataclass
class Answer:
    item_index: int
    response: Any | None          # None: rejected, raised or timed out
    latency: float | None         # from due time, seconds; open loop only


@dataclass
class OpenLoopResult:
    answers: list[Answer]
    offered_rate: float
    achieved_rate: float
    lateness: list[float]         # sent - due, per request
    submit_seconds: list[float]   # cost of each submit() call
    rejected: int
    wall: float
    errors: list[str] = field(default_factory=list)

    @property
    def overloaded(self) -> bool:
        return self.achieved_rate < (1.0 - OVERLOAD_SHARE) * self.offered_rate

    @property
    def latencies(self) -> list[float]:
        return [a.latency for a in self.answers if a.latency is not None]


def _collect(pending, errors: list[str]):
    try:
        return pending.result(WAIT)
    except Exception as error:  # a failed request is counted, not fatal
        if not errors:
            errors.append(repr(error))
        return None


def open_loop(submit: Callable[[Any], Any], items: Sequence[Any],
              due_offsets: np.ndarray, rejection: type[Exception]
              ) -> OpenLoopResult:
    """Send ``items[k]`` at ``due_offsets[k]``; see the module docstring."""
    clock, sleep = time.perf_counter, time.sleep
    sent_at = np.empty(len(items))
    submit_cost = np.empty(len(items))
    pendings: list[Any | None] = []
    rejected = 0
    start = clock() + 0.002
    for k, item in enumerate(items):
        remaining = start + due_offsets[k] - clock()
        if remaining > 0:
            sleep(remaining)
        before = clock()
        try:
            pendings.append(submit(item))
        except rejection:
            pendings.append(None)
            rejected += 1
        after = clock()
        sent_at[k] = before
        submit_cost[k] = after - before
    errors: list[str] = []
    answers = []
    for k, pending in enumerate(pendings):
        due = start + due_offsets[k]
        response = None if pending is None else _collect(pending, errors)
        # From due time to the return of submit(), then the server's own
        # submit-to-response time: a submit() that blocks before it
        # enqueues is counted, at the price of counting its last
        # microseconds twice.
        latency = None if response is None else \
            (sent_at[k] + submit_cost[k] - due) + response.latency_seconds
        answers.append(Answer(k, response, latency))
    wall = clock() - start
    span = float(due_offsets[-1] - due_offsets[0])
    sent_span = float(sent_at[-1] - (start + due_offsets[0]))
    count = len(items) - 1
    return OpenLoopResult(
        answers=answers,
        offered_rate=count / span if span > 0 else float("inf"),
        achieved_rate=count / sent_span if sent_span > 0 else float("inf"),
        lateness=[float(sent_at[k] - (start + due_offsets[k]))
                  for k in range(len(items))],
        submit_seconds=[float(c) for c in submit_cost],
        rejected=rejected, wall=wall, errors=errors)


@dataclass
class SaturationResult:
    answers: list[Answer]
    wall: float
    errors: list[str] = field(default_factory=list)

    @property
    def answered(self) -> int:
        return sum(a.response is not None for a in self.answers)

    @property
    def throughput(self) -> float:
        return self.answered / self.wall


def saturate(submit: Callable[[Any], Any], items: Iterable[Any],
             max_outstanding: int) -> SaturationResult:
    """Keep ``max_outstanding`` requests in flight until ``items`` run
    out."""
    clock = time.perf_counter
    outstanding: deque = deque()
    answers: list[Answer] = []
    errors: list[str] = []

    def settle() -> None:
        index, pending = outstanding.popleft()
        answers.append(Answer(index, _collect(pending, errors), None))

    start = clock()
    for index, item in enumerate(items):
        while len(outstanding) >= max_outstanding:
            settle()
        outstanding.append((index, submit(item)))
    while outstanding:
        settle()
    return SaturationResult(answers, clock() - start, errors)


# ----------------------------------------------------------------------
# Self-test
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _StubResponse:
    latency_seconds: float


class _StubPending:
    def __init__(self):
        self.enqueued = time.perf_counter()
        self._done = threading.Event()
        self._response: _StubResponse | None = None

    def result(self, timeout: float | None = None) -> _StubResponse:
        if not self._done.wait(timeout):
            raise TimeoutError("stub server did not answer")
        return self._response


class StubServer:
    """One worker, first come first served, a fixed sleep per request."""

    def __init__(self, service_seconds: float):
        self.service_seconds = service_seconds
        self._queue: deque[_StubPending] = deque()
        self._wake = threading.Condition()
        self._running = True
        self._worker = threading.Thread(target=self._run, daemon=True)
        self._worker.start()

    def submit(self, item: Any) -> _StubPending:
        pending = _StubPending()
        with self._wake:
            self._queue.append(pending)
            self._wake.notify()
        return pending

    def _run(self) -> None:
        while True:
            with self._wake:
                while not self._queue and self._running:
                    self._wake.wait()
                if not self._queue:
                    return
                pending = self._queue.popleft()
            time.sleep(self.service_seconds)
            pending._response = _StubResponse(
                time.perf_counter() - pending.enqueued)
            pending._done.set()

    def close(self) -> None:
        with self._wake:
            self._running = False
            self._wake.notify()
        self._worker.join(WAIT)


class _NeverRejected(Exception):
    """The stub server sheds nothing."""


def self_test(verbose: bool = True) -> int:
    """Three properties of the open-loop generator, against the stub.

    1. At a rate the stub keeps up with, latency from due time is the
       service time plus a little, and the phase is not overloaded.
    2. A stall in the generator is added to the latency of the request it
       delayed, on top of what the server took to answer, and makes the
       requests that were due during it late as well.
    3. A rate the generator cannot reach is flagged as overloaded.
    """
    service = 0.005
    problems: list[str] = []
    rng = np.random.default_rng(0)

    server = StubServer(service)
    try:
        calm = open_loop(server.submit, range(50),
                         poisson_schedule(rng, 50.0, 1.0), _NeverRejected)
        p50 = stats.quantile(calm.latencies, 0.5)
        if not service <= p50 < 3 * service:
            problems.append(f"calm p50 {p50 * 1e3:.2f} ms is not about the "
                            f"service time {service * 1e3:.0f} ms")
        if calm.overloaded:
            problems.append("calm phase flagged overloaded")

        stall = 0.1

        def stalling_submit(item):
            if item == 20:
                time.sleep(stall)
            return server.submit(item)

        stalled = open_loop(stalling_submit, range(60),
                            poisson_schedule(rng, 100.0, 0.6), _NeverRejected)
        worst = stalled.answers[20].latency
        served = stalled.answers[20].response.latency_seconds
        late = sum(a.latency > 0.25 * stall for a in stalled.answers)
        if worst - served < 0.8 * stall or late < 5:
            problems.append(f"a {stall * 1e3:.0f} ms generator stall left "
                            f"the stalled request at {worst * 1e3:.1f} ms "
                            f"and {late} requests late")

        def slow_submit(item):
            time.sleep(0.001)
            return server.submit(item)

        starved = open_loop(slow_submit, range(150),
                            poisson_schedule(rng, 5_000.0, 0.03),
                            _NeverRejected)
        if not starved.overloaded:
            problems.append(
                f"offered {starved.offered_rate:.0f}/s, reached "
                f"{starved.achieved_rate:.0f}/s, not flagged overloaded")
    finally:
        server.close()

    if verbose:
        print(f"loadgen self-test: calm p50 {p50 * 1e3:.2f} ms, lateness "
              f"p99 {stats.quantile(calm.lateness, 0.99) * 1e3:.2f} ms; "
              f"stalled request {worst * 1e3:.1f} ms from due time "
              f"({served * 1e3:.1f} ms in the server), {late} requests "
              f"late; starved reached "
              f"{starved.achieved_rate:.0f}/s of "
              f"{starved.offered_rate:.0f}/s")
        for problem in problems:
            print(f"loadgen self-test FAILED: {problem}")
    return 1 if problems else 0
