"""Concurrent multi-tenant front end over :class:`CostModelService`.

:class:`~repro.serve.service.CostModelService` (PR 4) micro-batches and
caches, but it is synchronous and single-caller: concurrent tenants
serialize behind one ``predict_runtime`` call, and there is no way to
refresh a fine-tuned estimator without dropping requests.
:class:`PredictionServer` is the production-shaped tier on top:

* **cross-client micro-batching** — requests from any number of tenant
  threads land in one queue; a dedicated batcher thread coalesces them
  into shared batches.  It is work-conserving by default: the moment it
  is free it takes everything queued, up to ``max_batch_size``, so a
  lone caller is never parked behind an unfilled batch, and what
  arrived while the previous batch was served forms the next one
  (under saturation, a full one).  A positive ``max_wait_ms`` holds a
  partial batch until the *oldest* request has waited that long or the
  batch is full: fewer, larger batches, which cost less CPU per request
  and add up to that wait to each one's latency;
* **admission control / load shedding** — the queue depth is bounded by
  ``max_queue_depth``; beyond it :meth:`PredictionServer.submit` raises
  :class:`~repro.errors.Overloaded` immediately instead of letting
  latency grow without bound;
* **hot model swap** — :meth:`PredictionServer.swap` installs a new
  estimator (an in-memory :class:`~repro.models.api.CostEstimator`, a
  prebuilt service, or a directory saved by ``estimator.save`` loaded
  through the :func:`~repro.models.api.load_estimator` manifests).
  Loading happens *outside* the server lock; installation is one atomic
  pointer swap.  The batcher pins ``(service, version)`` under the same
  lock it pops requests with, so **every batch is served by exactly one
  model version, every response is tagged with that version, and no
  request is dropped** during a swap;
* **fault isolation** — an estimator error (or an answer of the wrong
  length) poisons only the batch it occurred in: those requests fail
  with the original exception, the batcher thread survives, and
  subsequent batches are served normally;
* **fail-stop** — anything that escapes the batcher loop stops the
  server instead of leaving it accepting requests nobody will answer:
  every in-flight and queued request fails with a
  :class:`~repro.errors.ServeError` carrying the cause, and
  :meth:`PredictionServer.submit` raises from then on.

Why threads and not asyncio?  The hot path is numpy/BLAS work that
releases the GIL, so a batcher thread genuinely overlaps model forwards
with client-side queueing; every existing caller of this library
(runners, advisors, experiment drivers) is synchronous and can block on
:meth:`PendingPrediction.result` without owning an event loop; and an
asyncio front end would still have to push the CPU-bound forward onto a
thread anyway.  A forward on a thread pays that thread's allocator
costs, so the server limits glibc to one malloc arena when it is
constructed (:func:`_share_the_main_arena`).  The full rationale lives
in ``docs/ARCHITECTURE.md``.

Because inference is batch-size invariant (``_stable_matmul`` in
``repro.nn.tensor``), responses are **bit-identical** to direct
``CostEstimator.predict_runtime`` calls no matter how requests from
different tenants are interleaved into batches —
``tests/serve/test_server.py`` asserts this under real thread
interleavings and ``benchmarks/test_serving.py`` checks it, with p99
latency, under sustained multi-client traffic.
"""

from __future__ import annotations

import ctypes
import math
import os
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Sequence

from repro.errors import ModelError, Overloaded, ServeError
from repro.models.api import CostEstimator, load_estimator, peek_manifest
from repro.serve.service import CostModelService, ServiceStats

__all__ = ["PendingPrediction", "PredictionResponse", "PredictionServer"]

#: glibc's ``mallopt`` parameter number for the arena limit.
_M_ARENA_MAX = -8


def _share_the_main_arena() -> None:
    """Make threads started from here on allocate from glibc's main arena.

    A thread's first ``malloc`` gives it an arena of its own, and glibc
    hands an arena's free top back to the kernel once it outgrows the
    trim threshold.  The batcher's own arena holds little but a batch's
    numpy temporaries (~3 MB for 64 requests at bench scale), so after
    every batch they coalesced into that top and were trimmed, and the
    next batch faulted them in again: ~800 minor page faults per full
    batch at bench scale, and a forward that cost 55 µs per request on
    the batcher against 37 µs on the main thread.  With one arena
    (``mallopt(M_ARENA_MAX, 1)``) the batcher allocates from the main
    arena, which the interpreter's long-lived objects share, and a full
    batch faults a handful of pages; the process keeps one heap, not two.

    A no-op unless the C library is glibc and exports ``mallopt``.  The
    limit binds arenas created after the call; an arena already on
    glibc's free list (left by a thread that exited before the first
    server was built) still goes to the next new thread.

    Rejected: ``M_TRIM_THRESHOLD`` or ``M_TOP_PAD`` also stop the
    re-faulting, but glibc sets ``no_dyn_threshold`` for either, which
    freezes the process-wide mmap threshold at its value when the server
    is built; a server built early would then have every array over
    128 KB mmapped and unmapped on every batch.  Reusing forward buffers
    inside ``repro.nn`` would touch all 16 of its ops, under the
    bit-identity gates, for the same effect.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
    except (AttributeError, ValueError, OSError):
        return
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        mallopt.restype = ctypes.c_int
        mallopt(_M_ARENA_MAX, 1)


@dataclass(frozen=True)
class PredictionResponse:
    """One answered request.

    ``model_version`` names the exact estimator version that produced
    the prediction; ``batch_index`` identifies the server batch the
    request was coalesced into (all members of a batch share one
    version — the hot-swap tests group by it to prove no batch mixes
    versions).
    """

    runtime: float            #: predicted runtime in seconds
    model_version: str        #: version tag of the serving estimator
    batch_index: int          #: monotonic id of the coalesced batch
    latency_seconds: float    #: submit → response latency
    tenant: str | None        #: tenant tag echoed from the request


class PendingPrediction:
    """A submitted request: a one-shot future resolved by the batcher.

    Created by :meth:`PredictionServer.submit`; :meth:`result` blocks
    until the batcher answers (or ``timeout`` elapses) and either
    returns the :class:`PredictionResponse` or re-raises the estimator
    error that poisoned the request's batch.
    """

    __slots__ = ("item", "tenant", "_enqueued_at", "_unanswered",
                 "_response", "_error")

    def __init__(self, item: Any, tenant: str | None):
        self.item = item
        self.tenant = tenant
        self._enqueued_at = time.perf_counter()
        # Held until the batcher answers: a one-shot latch.  An Event
        # is a Condition over a lock, and between two batches every
        # client pays its wait and the batcher its set, ~6x the bare
        # lock's interpreter time, while the next batch fills.
        self._unanswered = threading.Lock()
        self._unanswered.acquire()
        self._response: PredictionResponse | None = None
        self._error: BaseException | None = None

    def done(self) -> bool:
        """Whether the request has been answered (or failed)."""
        return self._response is not None or self._error is not None

    def result(self, timeout: float | None = None) -> PredictionResponse:
        """Block for the response; raises :class:`ServeError` on
        timeout, or the original estimator error if the batch failed.

        ``None``, ``inf`` and any timeout beyond what a lock can wait
        (``threading.TIMEOUT_MAX``) wait without bound; a negative one
        waits not at all; NaN is refused."""
        if timeout is not None and math.isnan(timeout):
            raise ServeError("result timeout must be a number of seconds "
                             "or None, got nan")
        if timeout is None or timeout > threading.TIMEOUT_MAX:
            wait = -1
        else:
            wait = max(timeout, 0)
        if not self._unanswered.acquire(timeout=wait):
            raise ServeError(
                f"prediction not answered within {timeout}s (server "
                f"stopped, overloaded, or deadlocked?)"
            )
        # Open again for every later call, from any thread.
        self._unanswered.release()
        if self._error is not None:
            raise self._error
        assert self._response is not None
        return self._response

    # -- batcher side --------------------------------------------------
    def _resolve(self, response: PredictionResponse) -> None:
        self._response = response
        self._unanswered.release()

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self._unanswered.release()


class PredictionServer:
    """Serve one :class:`CostModelService` to many concurrent tenants
    (see the module docstring for the design).

    The server starts its batcher thread on construction and is used as
    a context manager or closed explicitly::

        with PredictionServer(service) as server:
            response = server.predict_runtime(plan, tenant="t0")
            server.swap("/path/to/saved/estimator")   # zero downtime

    Parameters
    ----------
    service:
        The :class:`CostModelService` to serve.  The server is the
        concurrency boundary: all service calls happen on the single
        batcher thread, so the service itself stays single-caller.
    max_batch_size:
        Cross-client coalescing bound (defaults to the service's own
        ``max_batch_size``).
    max_wait_ms:
        How long the oldest pending request may wait for its batch to
        fill before a partial flush.  The default ``0`` serves whatever
        is queued the moment the batcher is free.  A positive wait buys
        fewer, larger batches (less batcher CPU per request) for up to
        that much more latency; under saturation batches fill without
        it.  On ``python3 -m bench``'s ``serve_warm`` open loop, 2 ms
        raised the p50 latency from about 1.1 to 2.6 ms and lowered the
        batcher's busy share from about 0.74 to 0.47 (mean batch 5 ->
        13 requests).
    max_queue_depth:
        Admission-control bound on pending requests; beyond it
        :meth:`submit` sheds load with :class:`Overloaded`.
    version:
        Tag of the initially installed model (responses carry it).
    """

    def __init__(self, service: CostModelService, *,
                 max_batch_size: int | None = None,
                 max_wait_ms: float = 0.0,
                 max_queue_depth: int = 1024,
                 version: str = "v0"):
        if not isinstance(service, CostModelService):
            raise ServeError(
                "PredictionServer fronts a CostModelService; wrap the "
                "estimator first (CostModelService(estimator, database))"
            )
        if max_batch_size is None:
            max_batch_size = service.max_batch_size
        if max_batch_size < 1:
            raise ServeError(f"max_batch_size must be >= 1, "
                             f"got {max_batch_size}")
        # Fails on NaN, which compares false with everything (the
        # batcher would spin until a full batch queued), and on inf,
        # which overflows ``Condition.wait`` and kills the batcher.
        if not 0 <= max_wait_ms < math.inf:
            raise ServeError(f"max_wait_ms must be finite and >= 0, "
                             f"got {max_wait_ms}")
        if max_queue_depth < 1:
            raise ServeError(f"max_queue_depth must be >= 1, "
                             f"got {max_queue_depth}")
        self.max_batch_size = max_batch_size
        self.max_wait_seconds = max_wait_ms / 1e3
        self.max_queue_depth = max_queue_depth
        self.stats = ServiceStats()
        self._service = service
        self._version = version
        self._version_counter = 0
        self._batch_counter = 0
        self._queue: deque[PendingPrediction] = deque()
        self._cond = threading.Condition()
        self._running = True
        #: What stopped the batcher, if anything did (see :meth:`_run`).
        self._fatal: ServeError | None = None
        _share_the_main_arena()
        self._batcher = threading.Thread(target=self._run,
                                         name="repro-serve-batcher",
                                         daemon=True)
        self._batcher.start()

    # -- introspection -------------------------------------------------
    @property
    def service(self) -> CostModelService:
        """The currently installed service (changes on :meth:`swap`)."""
        with self._cond:
            return self._service

    @property
    def model_version(self) -> str:
        """Version tag new batches are currently served by."""
        with self._cond:
            return self._version

    @property
    def pending(self) -> int:
        """Requests queued but not yet pulled into a batch."""
        with self._cond:
            return len(self._queue)

    # -- client surface ------------------------------------------------
    def submit(self, item: "Any", tenant: str | None = None
               ) -> PendingPrediction:
        """Enqueue one plan / parsed query / SQL string for prediction.

        Returns immediately with a :class:`PendingPrediction`; raises
        :class:`Overloaded` when the queue is at ``max_queue_depth``
        and :class:`ServeError` when the server is closed.
        """
        pending = PendingPrediction(item, tenant)
        with self._cond:
            if not self._running:
                raise ServeError(
                    "server is closed; no new requests") from self._fatal
            if len(self._queue) >= self.max_queue_depth:
                self.stats.add(rejected=1)
                raise Overloaded(
                    f"queue depth {self.max_queue_depth} reached "
                    f"({self.max_queue_depth} requests pending); back "
                    f"off and retry"
                )
            self._queue.append(pending)
            self._cond.notify_all()
        return pending

    def predict_runtime(self, item: "Any", tenant: str | None = None,
                        timeout: float | None = None) -> PredictionResponse:
        """Blocking convenience: submit one request and wait for it."""
        return self.submit(item, tenant).result(timeout)

    # -- hot model swap ------------------------------------------------
    def swap(self, source: "CostModelService | CostEstimator | str | os.PathLike",
             version: str | None = None,
             warm: Sequence[Any] | None = None) -> str:
        """Atomically install a new model; returns its version tag.

        ``source`` is a prebuilt :class:`CostModelService`, a fitted
        :class:`CostEstimator`, or a directory written by
        ``estimator.save`` (loaded via the
        :func:`~repro.models.api.load_estimator` manifest dispatch —
        :func:`~repro.models.api.peek_manifest` validates the manifest
        and names the default version tag before any weights are read).

        All loading, service construction and optional cache warming
        (``warm`` — items encoded into the *new* service's cache)
        happen **outside** the server lock, so serving never stalls on
        a swap; the installation itself is one pointer assignment under
        the batcher's lock.  Batches formed before the swap complete on
        the old version, batches formed after it use the new one —
        exactly one version per batch, zero requests dropped.
        """
        label = version
        if isinstance(source, CostModelService):
            service = source
        else:
            current = self.service
            if isinstance(source, CostEstimator):
                estimator = source
            else:
                manifest = peek_manifest(source)
                if label is None:
                    label = f"{manifest['name']}@{os.path.basename(str(source))}"
                estimator = load_estimator(source, current.database)
            service = CostModelService(
                estimator, current.database,
                max_batch_size=current.max_batch_size,
                cache_entries=current.cache_entries,
            )
        if warm is not None:
            service.warm(warm)
        with self._cond:
            if not self._running:
                raise ServeError("server is closed; cannot swap models")
            if label is None:
                self._version_counter += 1
                label = f"v{self._version_counter}"
            self._service = service
            self._version = label
        self.stats.add(swaps=1)
        return label

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        """Stop accepting requests, drain the queue, join the batcher.

        Every request admitted before ``close`` is still answered (the
        batcher flushes the remaining queue without waiting for batches
        to fill); idempotent.
        """
        with self._cond:
            self._running = False
            self._cond.notify_all()
        self._batcher.join()

    def __enter__(self) -> "PredictionServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- batcher thread ------------------------------------------------
    def _run(self) -> None:
        in_flight: list[PendingPrediction] = []
        try:
            while True:
                batch = self._next_batch()
                if batch is None:
                    return
                in_flight = batch[0]
                self._execute(*batch)
        except Exception as error:
            self._stop_failed(error, in_flight)

    def _stop_failed(self, cause: Exception,
                     in_flight: list[PendingPrediction]) -> None:
        """Fail-stop: the batcher is about to die, so nobody would ever
        answer what is queued or accepted from here on."""
        fatal = ServeError(f"batcher stopped by {cause!r}; server closed")
        fatal.__cause__ = cause
        with self._cond:
            self._running = False
            self._fatal = fatal
            stranded = [p for p in in_flight if not p.done()]
            stranded.extend(self._queue)
            self._queue.clear()
        self.stats.add(batcher_crashes=1, failures=len(stranded))
        for pending in stranded:
            pending._fail(fatal)

    def _next_batch(self):
        """Pop the next coalesced batch, pinning the model version.

        Blocks until a request is pending; with a positive
        ``max_wait_ms``, keeps collecting until the batch is full or the
        oldest request has waited that long.  Returns ``None`` only when
        the server is closed *and* the queue is drained.
        """
        with self._cond:
            while not self._queue:
                if not self._running:
                    return None
                self._cond.wait()
            if self._running:
                deadline = self._queue[0]._enqueued_at + self.max_wait_seconds
                while len(self._queue) < self.max_batch_size:
                    remaining = deadline - time.perf_counter()
                    if remaining <= 0 or not self._running:
                        break
                    self._cond.wait(remaining)
            count = min(len(self._queue), self.max_batch_size)
            batch = [self._queue.popleft() for _ in range(count)]
            # Pinned under the same lock swap() assigns under: the whole
            # batch is served by exactly this (service, version) pair.
            service, version = self._service, self._version
            index = self._batch_counter
            self._batch_counter += 1
        return batch, service, version, index

    def _execute(self, batch: list[PendingPrediction],
                 service: CostModelService, version: str,
                 index: int) -> None:
        try:
            runtimes = service.predict_runtime([p.item for p in batch])
            if len(runtimes) != len(batch):
                # zip() below would answer the first few and strand
                # the rest until their own timeouts.
                raise ModelError(
                    f"estimator returned {len(runtimes)} predictions "
                    f"for a batch of {len(batch)} requests")
        except Exception as error:
            # Poisoned batch: fail exactly these requests with the
            # original error; the batcher survives and the next batch
            # is served normally.
            self.stats.add(batches=1, failures=len(batch))
            for pending in batch:
                pending._fail(error)
            return
        now = time.perf_counter()
        latencies = [now - pending._enqueued_at for pending in batch]
        self.stats.add(batches=1, requests=len(batch))
        self.stats.observe_latencies(latencies)
        for pending, runtime, latency in zip(batch, runtimes, latencies):
            pending._resolve(PredictionResponse(
                runtime=float(runtime), model_version=version,
                batch_index=index, latency_seconds=latency,
                tenant=pending.tenant,
            ))
